import hashlib
import json
import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction as Q
from pathlib import Path

import pytest

import loopcert
from loopcert.cli import main
from loopcert.reports import load_schema, validate_report


# The directory holding the loopcert package this test process imported.  The
# child runs in tmp_path, where a relative PYTHONPATH entry such as "src" no
# longer resolves, so this absolute path goes first on the child's PYTHONPATH.
PACKAGE_ROOT = str(Path(loopcert.__file__).resolve().parent.parent)


def run_cli(args, tmp_path, env_extra=None):
    """Run ``python -m loopcert`` in tmp_path against the imported package.

    Inherited LOOPCERT_* variables are dropped so the caller's shell cannot
    change what the child computes; env_extra is applied after that.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("LOOPCERT_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")]))
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run(
        [sys.executable, "-m", "loopcert", *args],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=env,
    )
    return proc


def test_no_arguments_is_usage_error(tmp_path):
    proc = run_cli([], tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert "usage" in (proc.stderr + proc.stdout).lower()


def test_roots_report_and_schema(tmp_path):
    out = tmp_path / "a2.json"
    assert main(["roots", "--type", "A2", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    validate_report(doc)
    assert doc["rank"] == 2 and doc["type"] == "A"
    assert doc["rho"][0] == {"num": 1, "den": 1}
    assert doc["failures"] == []


def test_roots_unknown_type_exit_2(tmp_path):
    proc = run_cli(["roots", "--type", "Q9"], tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert "unknown root system" in proc.stderr


def test_certify_nu0_usage_error(tmp_path):
    proc = run_cli(["certify", "--type", "A1", "--nu0", "1", "--max-len", "4"], tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert "must exceed 2h_dual = 4" in proc.stderr


def test_byte_identical_reruns(tmp_path):
    # identical config (including the out path) and seed: identical bytes
    out = tmp_path / "a.json"
    argv = ["verify", "cor34", "--type", "A2", "--max-len", "4", "--samples", "40",
            "--seed", "5", "--out", str(out)]
    assert main(argv) == 0
    first = out.read_bytes()
    out.unlink()
    assert main(argv) == 0
    assert out.read_bytes() == first


def test_timing_flag_breaks_determinism_but_validates(tmp_path):
    out = tmp_path / "t.json"
    assert main(["roots", "--type", "A1", "--out", str(out), "--timing"]) == 0
    doc = json.loads(out.read_text())
    validate_report(doc)
    assert "wall_time_s" in doc


def test_census_csv_columns(tmp_path):
    out = tmp_path / "census.csv"
    assert main(["weyl", "census", "--type", "A1", "--max-len", "4", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "length,count_full,count_kostant"
    assert lines[1] == "0,1,1"
    assert len(lines) == 6


def test_enumerate_jsonl(tmp_path):
    out = tmp_path / "a1.jsonl"
    assert main(["weyl", "enumerate", "--type", "A1", "--max-len", "3", "--out", str(out)]) == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(rows) == 7
    assert all(set(r) == {"tilde_matrix", "b", "length", "word"} for r in rows)
    assert rows[0]["length"] == 0 and rows[0]["word"] == []


def test_verify_report_schema_and_exit(tmp_path):
    out = tmp_path / "v.json"
    assert main(["verify", "lemma351", "--type", "A2", "--max-len", "6", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    validate_report(doc)
    assert doc["lemma"] == "lemma351" and doc["violations"] == []


def test_certify_report_and_csv(tmp_path):
    out = tmp_path / "c.json"
    csv_path = tmp_path / "c.csv"
    rc = main([
        "certify", "--type", "A1", "--max-len", "30", "--r", "16",
        "--out", str(out), "--csv", str(csv_path),
    ])
    assert rc == 0
    doc = json.loads(out.read_text())
    validate_report(doc)
    assert doc["verdict"] == "DECAYING"
    header = csv_path.read_text().splitlines()[0]
    assert header == "length,count,max_log_term,shell_sum,partial_sum"


def test_decay_convert_cli(tmp_path):
    out = tmp_path / "conv.json"
    assert main(["decay", "convert", "--c", "1", "--C", "1", "--y", "739/100", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    validate_report(doc)
    assert doc["best_n"] == 3


def test_decay_l1_cli(tmp_path):
    out = tmp_path / "l1.json"
    assert main(["decay", "l1", "--n", "1", "--prec", "128", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    validate_report(doc)
    assert doc["ln_norm"].startswith("-0.30685")  # ln(2/e)
    lo, hi = doc["ln_norm_enclosure"]  # rounded outward, so it holds ln(2/e)
    assert Decimal(lo) <= Decimal("-0.3068528194400546905827678785418234319245") <= Decimal(hi)


@pytest.mark.parametrize("args, env, cfg", [
    (["--n", "2", "--prec", "-5"], None, None),
    (["--n", "2", "--prec", "0"], None, None),
    (["--n", "2"], {"LOOPCERT_PREC": "-5"}, None),
    (["--n", "2"], None, {"prec": 0}),
], ids=["flag-negative", "flag-zero", "env", "config"])
def test_decay_nonpositive_prec_is_usage_error(tmp_path, args, env, cfg):
    if cfg is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        args = args + ["--config", "cfg.json"]
    proc = run_cli(["decay", "l1", *args], tmp_path, env_extra=env)
    assert proc.returncode == 2, proc.stderr
    assert "argument --prec: must be >= 1" in proc.stderr and proc.stdout == ""


def test_decay_negative_order_is_usage_error(tmp_path):
    proc = run_cli(["decay", "l1", "--n", "-1"], tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert "argument --n: must be >= 0, got -1" in proc.stderr and "derivative order" not in proc.stderr


def test_env_seed_override(tmp_path):
    out = tmp_path / "env.json"
    proc = run_cli(
        ["verify", "lemma23", "--type", "A1", "--max-len", "4", "--out", str(out)],
        tmp_path,
        env_extra={"LOOPCERT_SEED": "777"},
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads((tmp_path / "env.json").read_text())
    assert doc["config"]["seed"] == 777


def test_bad_env_default_fails_only_where_it_is_read(tmp_path):
    env = {"LOOPCERT_SEED": "abc"}
    proc = run_cli(["roots", "--type", "A1"], tmp_path, env_extra=env)
    assert proc.returncode == 0, proc.stderr
    proc = run_cli(["verify", "lemma23", "--type", "A1", "--max-len", "2"], tmp_path, env_extra=env)
    assert proc.returncode == 2
    assert "invalid int value: 'abc'" in proc.stderr and "Traceback" not in proc.stderr


def test_config_file_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"max-len": 5, "seed": 123}))
    out = tmp_path / "cfg_out.json"
    rc = main(["--config", str(cfg), "verify", "lemma23", "--type", "A1", "--seed", "9", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    # config file fills max-len; the explicit flag beats the file for seed
    assert doc["max_len"] == 5 and doc["config"]["seed"] == 9


def test_config_file_is_echoed(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"max-len": 3}))
    assert main(["verify", "lemma23", "--type", "A1", "--config", str(cfg)]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["config"] == str(cfg)
    assert main(LEMMA23) == 0
    assert json.loads(capsys.readouterr().out)["config"]["config"] is None


def test_all_schemas_load():
    for kind in ["roots", "weyl_enumerate", "weyl_census", "verify", "certify",
                 "decay_l1", "decay_fourier", "decay_convert", "reproduce"]:
        schema = load_schema(kind)
        assert schema["properties"]["kind"]["enum"] == [kind]


def test_validator_rejects_bad_document():
    with pytest.raises(ValueError):
        validate_report({"kind": "roots", "schema_version": 1, "config": {}, "failures": []})


@pytest.mark.parametrize("max_len, measured", [("3", {"Eprime_sq": "8", "Eprime": 2.8284271247461916}), ("0", {})],
                         ids=["len3", "len0"])
def test_lemma22_unmeasured_constants_are_null(capsys, max_len, measured):
    # to length 3 no A2 element has l(w) > |D+| = 3, so E is not measured;
    # to length 0 no element has b != 0, so neither is E'; both reports validate
    assert main(["verify", "lemma22", "--type", "A2", "--max-len", max_len]) == 0
    doc = json.loads(capsys.readouterr().out)
    validate_report(doc)
    nulls = {"E_sq": None, "E": None, "Eprime_sq": None, "Eprime": None}
    assert doc["constants"] == {**nulls, **measured}
    assert doc["violations"] == []


def test_validator_type_lists():
    doc = {"kind": "verify", "schema_version": 3, "config": {}, "failures": [], "lemma": "lemma22", "type": "A2",
           "max_len": 0, "violations": [], "extremal_cases": [], "constants": {"E_sq": None, "Eprime_sq": "8"}}
    validate_report(doc)
    for bad in (1, 0.5, True, []):
        with pytest.raises(ValueError):
            validate_report({**doc, "constants": {"E_sq": bad}})


def test_verify_passes_r_and_t_to_the_audit(tmp_path):
    out = tmp_path / "thm32.json"
    argv = ["verify", "thm32", "--type", "A2", "--max-len", "3", "--samples", "10",
            "--r", "2", "--t", "1/3", "--out", str(out)]
    assert main(argv) == 0
    doc = json.loads(out.read_text())
    assert (doc["config"]["r"], doc["config"]["t"]) == ("2", "1/3")
    assert (doc["constants"]["r"], doc["constants"]["t"]) == ("2", "1/3")
    assert doc["failures"] == []


@pytest.mark.parametrize("argv", [
    ["roots", "--type", "A1", "--seed", "1"],
    ["roots", "--type", "A1", "--prec", "64"],
    ["weyl", "enumerate", "--type", "A1", "--max-len", "2", "--seed", "1"],
    ["weyl", "census", "--type", "A1", "--max-len", "2", "--prec", "64"],
    ["verify", "lemma23", "--type", "A1", "--max-len", "2", "--prec", "64"],
    ["certify", "--type", "A1", "--max-len", "2", "--seed", "1"],
    ["decay", "l1", "--n", "1", "--seed", "1"],
    ["decay", "fourier", "--range", "50,60", "--seed", "1"],
    ["decay", "convert", "--c", "1", "--C", "1", "--y", "2", "--seed", "1"],
    ["roots", "--type", "A1", "--threads", "2"],
    ["verify", "lemma23", "--type", "A1", "--max-len", "2", "--threads", "2"],
    ["decay", "convert", "--c", "1", "--C", "1", "--y", "2", "--threads", "2"],
    ["reproduce-all", "--threads", "2"],
    # a prefix of a flag is not the flag
    ["weyl", "census", "--type", "A1", "--max", "3"],
])
def test_flag_the_command_does_not_read_is_usage_error(argv):
    assert main(argv) == 2


LEMMA23 = ["verify", "lemma23", "--type", "A1", "--max-len", "2"]


@pytest.mark.parametrize("cfg, argv, expected", [
    # a flag in --flag=value form beats the file
    ({"seed": 123}, LEMMA23 + ["--seed=9", "--config", "{cfg}"], ("seed", 9)),
    # a trailing --config names no file
    ({"seed": 123}, LEMMA23 + ["--config"], None),
    # --config=FILE is read
    ({"seed": 123}, LEMMA23 + ["--config={cfg}"], ("seed", 123)),
    # JSON true turns a switch on
    ({"timing": True}, LEMMA23 + ["--config", "{cfg}"], ("timing", True)),
    ({"kostant": True}, ["weyl", "enumerate", "--type", "A1", "--max-len", "2", "--config", "{cfg}"], ("kostant", True)),
    # a key the command does not read, and a value its flag rejects
    ({"prec": 64}, LEMMA23 + ["--config", "{cfg}"], None),
    ({"r": "x"}, LEMMA23 + ["--config", "{cfg}"], None),
    # false and null are not flag values: leaving the key out keeps the default
    ({"timing": False}, LEMMA23 + ["--config", "{cfg}"], None),
    ({"out": None}, LEMMA23 + ["--config", "{cfg}"], None),
    # a key matches a flag only by its full name
    ({"max": 3}, ["weyl", "census", "--type", "A1", "--config", "{cfg}"], None),
])
def test_config_file_rules(tmp_path, capsys, cfg, argv, expected):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    rc = main([arg.format(cfg=path) for arg in argv])
    if expected is None:
        assert rc == 2
        return
    assert rc == 0
    key, value = expected
    assert json.loads(capsys.readouterr().out)["config"][key] == value


@pytest.mark.parametrize("lemma", ["thm32", "cor34"])
@pytest.mark.parametrize("samples", ["0", "-5"])
def test_audit_needs_a_sample(tmp_path, lemma, samples):
    proc = run_cli(["verify", lemma, "--type", "A1", "--max-len", "2", "--samples", samples], tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error:") and "--samples >= 1" in proc.stderr


@pytest.mark.parametrize("samples", ["0", "1"])
def test_fourier_fit_needs_two_samples(capsys, samples):
    assert main(["decay", "fourier", "--range", "50,60", "--samples", samples]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--samples >= 2" in err


@pytest.mark.parametrize("argv, message", [
    (["decay", "convert", "--c", "0", "--C", "1", "--y", "739/100"], "need c > 0, C > 0 and y > 1"),
    (["decay", "convert", "--c", "-1", "--C", "1", "--y", "739/100"], "need c > 0, C > 0 and y > 1"),
    (["decay", "convert", "--c", "1", "--C", "0", "--y", "739/100"], "need c > 0, C > 0 and y > 1"),
    (["decay", "convert", "--c", "1", "--C=-1/2", "--y", "739/100"], "need c > 0, C > 0 and y > 1"),
    (["decay", "fourier", "--range", "50"], "--range needs r_min,r_max"),
    (["decay", "fourier", "--range", "50,60,70"], "--range needs r_min,r_max"),
    (["decay", "fourier", "--range", "50,r"], "--range needs numbers r_min,r_max"),
    (["decay", "fourier", "--range", "50,inf"], "--range bounds must be finite"),
    (["decay", "fourier", "--range", "50,500"], "--range r_max must be <= 484.41"),
], ids=["c-zero", "c-negative", "C-zero", "C-negative", "range-one-value", "range-three-values",
        "range-not-a-number", "range-not-finite", "range-past-grid"])
def test_decay_bad_values_are_usage_errors(capsys, argv, message):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err


def test_certify_c2_zero_is_usage_error(tmp_path):
    for extra in ([], ["--nu0", "9/2", "--d", "10"]):
        proc = run_cli(["certify", "--type", "A1", "--max-len", "4", "--c2", "0", *extra], tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr == "error: constants must be positive\n"


@pytest.mark.parametrize("nu0, cap_d", [(None, None), ("9/2", None), (None, "10"), ("9/2", "10")])
def test_certify_params_from_flags(monkeypatch, nu0, cap_d):
    # --nu0/--d replace the default's fields one by one; the default d is the
    # one for the default nu0 (A1: nu0 = 5, d = (ceil(6 * 3/2) + 1) / (3/2))
    from loopcert import cli, convergence

    seen = []

    def certify(rs, params, max_len, prec):
        seen.append(params)
        return {"verdict": "DECAYING", "shells": []}

    monkeypatch.setattr(convergence, "certify", certify)
    argv = ["certify", "--type", "A1", "--max-len", "4", "--r", "2", "--re-nu", "-1",
            "--c1", "2", "--c2", "3/2", "--c3", "1/2", "--big-d", "1/3"]
    argv += ["--nu0", nu0] if nu0 else []
    argv += ["--d", cap_d] if cap_d else []
    cli.cmd_certify(cli.build_parser().parse_args(argv))
    expected = convergence.CertificateParams(
        "A1", Q(2), Q(-1), Q(nu0 or 5), Q(2), Q(3, 2), Q(1, 2), Q(cap_d or Q(20, 3)), Q(1, 3))
    assert seen == [expected]


# sha256 of outputs that must stay byte-identical (default seed, no LOOPCERT_
# overrides): stdout is the full report, the JSONL file the emitted elements
LEMMA23_C2_SHA256 = "56cec28eb3801bbc7a793fbef9e6adce139c060e850c76b8bf5b29f843241fa5"
LEMMA351_G2_SHA256 = "49649b602711b0009d8643dcf63e5ca9cd516683e94b62cb0ee3c7f00fe4f2bd"
LEMMA22_A2_SHA256 = "f3b01f04c15a80b00f7d8fe2899f6d1b7ee681f783eb09c3a5323d7b2aa6fb77"
LEMMA22_G2_SHA256 = "6b16021432e39ef13b46f52c83458d90febe4bf741dd9b998def8f25970a65ca"
# the audits, as printed by the Fraction loop before the integer kernels took
# over the corollary: cor34 with C1 = 1, thm32 without the corollary
COR34_A2_SHA256 = "9dbaac7df86f9a38128fa46b910f44fa6e8e8ffca4199fa5f1b789dfb5de3779"
THM32_C2_SHA256 = "a7d27d6ce43f3132e5cfbccc6493a9adcc557c651de02441906e100a172d0cd1"
ENUMERATE_G2_KOSTANT_SHA256 = "c123947669fa1e751d88f58262e8c5686d165767c2f724739215009e2fcd34dd"
ENUMERATE_G2_KOSTANT_JSONL_SHA256 = "0e3179210b65fc08611867976488d53d7336b02a3cf307088048e333b1aeb441"
ENUMERATE_A2_SHA256 = "eee9f7abbf164316f608021b138830e09b02593db82ec54ba122ac9c151d65e9"
ENUMERATE_A2_JSONL_SHA256 = "f6b6482c384398231fbc47d752a1875b6c29981c1e386cd0bf7c3965a86e6f28"
ENUMERATE_E6_SHA256 = "f5e592e865ebfa07dd2c995ebe456089392ae7814d7b99ed640f94c78540f7ed"
ENUMERATE_E6_JSONL_SHA256 = "84f60df60a46900e09a03deebb91b7f39319a3663eea2309af8ac45ec6c38ff2"
CENSUS_C2_SHA256 = "d49dd657982736f9bd736aef1ff4a344020c61c39fc7aba2bbb9d73ddc30537f"
CENSUS_C2_CSV_SHA256 = "34a3dfc89963645bef852ffc86c220306d09890459134d38d6ce7af578377251"
CENSUS_E6_SHA256 = "aad1ed6a541e388cfa5a7cc42a7f8efdbf3c4fc3db50d5b91d1db6878a547565"
CERTIFY_C2_SHA256 = "6d8ca3624ecbcd06f963c60509924f3373be3f28ef17de63369d3ee475397ab2"
# a certify report at 64 bits, where the 20 printed digits come closest to the
# last bit of each shell sum
CERTIFY_A2_PREC64_SHA256 = "5e25e345dff78132c5c01ad7a43acd95c3496f56019c20fda4eed12561584237"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("argv, digest", [
    (["verify", "lemma23", "--type", "C2", "--max-len", "8"], LEMMA23_C2_SHA256),
    (["verify", "lemma351", "--type", "G2", "--max-len", "8"], LEMMA351_G2_SHA256),
    (["verify", "lemma22", "--type", "A2", "--max-len", "8"], LEMMA22_A2_SHA256),
    (["verify", "lemma22", "--type", "G2", "--max-len", "8"], LEMMA22_G2_SHA256),
    (["verify", "cor34", "--type", "A2", "--max-len", "8", "--samples", "1000", "--seed", "1"], COR34_A2_SHA256),
    (["verify", "thm32", "--type", "C2", "--max-len", "6", "--samples", "50", "--seed", "3"], THM32_C2_SHA256),
], ids=["lemma23-C2", "lemma351-G2", "lemma22-A2", "lemma22-G2", "cor34-A2", "thm32-C2"])
def test_verify_report_unchanged(monkeypatch, capsys, argv, digest):
    for name in ("SEED", "PREC", "OUT_DIR"):
        monkeypatch.delenv("LOOPCERT_" + name, raising=False)
    assert main(argv) == 0
    assert _sha256(capsys.readouterr().out) == digest


def test_enumerate_kostant_unchanged(tmp_path, capsys):
    out = tmp_path / "g2.jsonl"
    assert main(["weyl", "enumerate", "--type", "G2", "--max-len", "6", "--kostant", "--out", str(out)]) == 0
    assert _sha256(capsys.readouterr().out) == ENUMERATE_G2_KOSTANT_SHA256
    assert _sha256(out.read_text()) == ENUMERATE_G2_KOSTANT_JSONL_SHA256


@pytest.mark.parametrize("label, max_len, digest, jsonl_digest", [
    ("A2", "8", ENUMERATE_A2_SHA256, ENUMERATE_A2_JSONL_SHA256),
    ("E6", "3", ENUMERATE_E6_SHA256, ENUMERATE_E6_JSONL_SHA256),
], ids=["A2-8", "E6-3"])
def test_enumerate_full_bfs_unchanged(tmp_path, capsys, label, max_len, digest, jsonl_digest):
    # the full-group BFS order (elements, words, layer sort) that the length
    # identities, C1, C8 and verify lemma22 read
    out = tmp_path / "full.jsonl"
    assert main(["weyl", "enumerate", "--type", label, "--max-len", max_len, "--out", str(out)]) == 0
    assert _sha256(capsys.readouterr().out) == digest
    assert _sha256(out.read_text()) == jsonl_digest


@pytest.mark.parametrize("argv, digest, csv_digest", [
    (["weyl", "census", "--type", "C2", "--max-len", "16"], CENSUS_C2_SHA256, CENSUS_C2_CSV_SHA256),
    (["weyl", "census", "--type", "E6", "--max-len", "3"], CENSUS_E6_SHA256, None),
    (["certify", "--type", "C2", "--max-len", "30", "--r", "80", "--re-nu", "0", "--d", "9"], CERTIFY_C2_SHA256, None),
    (["certify", "--type", "A2", "--max-len", "14", "--r", "80", "--prec", "64"], CERTIFY_A2_PREC64_SHA256, None),
], ids=["census-C2", "census-E6", "certify-C2", "certify-A2-prec64"])
def test_kostant_sweep_report_unchanged(monkeypatch, capsys, tmp_path, argv, digest, csv_digest):
    # sweeps over the Kostant representatives alone (census full counts from the
    # W_fin convolution) must print what a full-group BFS filtered by is_kostant prints
    for name in ("SEED", "PREC", "OUT_DIR"):
        monkeypatch.delenv("LOOPCERT_" + name, raising=False)
    out = tmp_path / "census.csv"
    assert main(argv + (["--out", str(out)] if csv_digest else [])) == 0
    assert _sha256(capsys.readouterr().out) == digest
    if csv_digest:
        assert hashlib.sha256(out.read_bytes()).hexdigest() == csv_digest


# sha256 of stdout + "\0" + stderr of each argv at an 80-column terminal,
# captured from the parser that built every subcommand's flags; the three
# usage errors: an unknown flag, a missing required flag, a flag of another
# command
HELP_AND_USAGE_SHA256 = {
    ("--help",): (0, "f7dcf6a38818b097311bb5e837c3d4f298a644c797b756328c4a1170f244a48a"),
    ("decay", "--help"): (0, "57e18500be849e0419df465272200db7d2f7aeb3a7e45fa14c27d465102f8ea5"),
    ("weyl", "--help"): (0, "e5008108437898e2f2b60cdf32c315a63ceeeabff0990fb85bb976a8151b80e4"),
    ("verify", "--help"): (0, "966302018d7c07ea6d724e21a76f99cbcd54c87329b035343006a2a4dc2242f4"),
    ("decay", "l1", "--n", "3", "--bogus"): (2, "15f0496c727413734043ad0397862785645e704bf6c5c25df47d5816e86f15ca"),
    ("decay", "l1"): (2, "52ae25299007fb841a1efc08246bbd011464117302ab71029867d43e24506b17"),
    ("roots", "--prec", "64"): (2, "43ded5bd8923a2e9854bc34546981ab164da62fa55ffe35caa2f1ff0a545ccc3"),
}


@pytest.mark.parametrize("argv", sorted(HELP_AND_USAGE_SHA256), ids=" ".join)
def test_help_and_usage_unchanged(monkeypatch, capsys, argv):
    monkeypatch.setenv("COLUMNS", "80")
    code = main(list(argv))
    captured = capsys.readouterr()
    assert (code, _sha256(captured.out + "\0" + captured.err)) == HELP_AND_USAGE_SHA256[argv]


@pytest.mark.parametrize("argv", [
    ["roots", "--type", "A2"],
    ["weyl", "enumerate", "--type", "A2", "--max-len", "3", "--kostant"],
    ["weyl", "census", "--type", "C2", "--max-len", "4", "--out", "c.csv"],
    ["verify", "cor34", "--type", "A2", "--max-len", "8", "--samples", "10", "--seed", "1", "--t", "1/3"],
    ["certify", "--type", "A2", "--max-len", "14", "--r", "80", "--re-nu", "-10", "--prec", "64"],
    ["decay", "l1", "--n", "5", "--prec", "64", "--timing"],
    ["decay", "fourier", "--range", "50,60", "--samples", "3"],
    ["decay", "convert", "--c", "1", "--C", "1", "--y", "2"],
    ["reproduce-all", "--profile", "small", "--out-dir", "out"],
])
def test_parser_for_argv_parses_like_the_full_parser(monkeypatch, argv):
    # the parser built for argv alone gives the namespace of the one built
    # for every command, environment defaults included
    from loopcert.cli import build_parser

    monkeypatch.setenv("LOOPCERT_SEED", "7")
    monkeypatch.setenv("LOOPCERT_PREC", "96")
    assert build_parser(argv).parse_args(argv) == build_parser().parse_args(argv)
