"""loopcert command line: root data export, affine Weyl enumeration, lemma
verification sweeps, entirety certificates, the one-variable decay suite, and
the reproduce-all acceptance driver.

Each subcommand takes only the flags it reads: --out and --timing everywhere,
--seed on verify and reproduce-all, --prec on certify, decay and
reproduce-all.  Config precedence: flags > --config file > environment
(LOOPCERT_SEED, LOOPCERT_PREC, LOOPCERT_OUT_DIR) > defaults.  Every report
echoes its resolved config; reruns with the same config and seed write
byte-identical files (timing only with --timing).
Exit codes: 0 clean, 1 checks failed, 2 usage/parameter error, 3 internal
invariant failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
import time
from decimal import ROUND_CEILING, ROUND_FLOOR, Decimal, localcontext
from fractions import Fraction as Q
from pathlib import Path

from mpmath import mp

from . import acceptance
from . import convergence as conv
from . import decay
from . import inequalities as ineq
from . import weyl
from .cartan import RootSystemError, build_root_system_label
from .reports import Report, q_json, q_str, write_report

ENV_PREFIX = "LOOPCERT_"


class UsageError(Exception):
    pass


def _q(text: str) -> Q:
    try:
        return Q(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc


def _int_from(low: int):
    """An argparse type: an int no smaller than low."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


def _round_out(x, digits: int, up: bool) -> str:
    """The mpf x to `digits` significant digits, rounded up (toward +inf) or
    down: Decimal takes the binary value exactly and rounds it once."""
    sign, man, exp, _ = x._mpf_
    with localcontext() as ctx:
        ctx.prec, ctx.rounding = digits, ROUND_CEILING if up else ROUND_FLOOR
        d = Decimal(-man if sign else man)
        return format(d * (1 << exp) if exp >= 0 else d / (1 << -exp), "g")


def _env_default(name: str, fallback):
    """The raw environment string, or the fallback.  Argparse applies the
    flag's type to a string default only when the flag is unset, so a bad
    value is a usage error of the commands that read it and of no other."""
    return os.environ.get(ENV_PREFIX + name.upper(), fallback)


class _Parser(argparse.ArgumentParser):
    """Flags match only by their full name; subparsers inherit the class."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)


def _common_flags(p: argparse.ArgumentParser, seed: bool = False, prec: bool = False) -> None:
    """--out and --timing, then --seed and --prec where the command reads them."""
    p.add_argument("--out", default=None, help="output path (reports: JSON)")
    p.add_argument("--timing", action="store_true", help="include wall time in the report (breaks byte-determinism)")
    if seed:
        p.add_argument("--seed", type=int, default=_env_default("seed", 20260808))
    if prec:
        p.add_argument("--prec", type=_int_from(1), default=_env_default("prec", 256), help="precision bits")


def build_parser(argv=()) -> argparse.ArgumentParser:
    """The argument parser.  Every subcommand is listed, but only the command
    that argv names (and, under weyl and decay, the subcommand it names) gets
    its flags: argparse reads no other subparser when it parses argv.  With
    no command word in argv, or one that names no command, every subparser
    gets its flags.  The LOOPCERT_ environment defaults are read on each call."""
    top = _Parser(prog="loopcert", description=__doc__)
    top.add_argument("--config", help="JSON file with default flag values")
    sub = top.add_subparsers(dest="command", required=True)
    roots = sub.add_parser("roots", help="emit the finite root datum as JSON")
    wsub = sub.add_parser("weyl", help="affine Weyl group tools").add_subparsers(dest="weyl_command", required=True)
    enum = wsub.add_parser("enumerate", help="JSON lines of elements by length")
    census = wsub.add_parser("census", help="per-length counts as CSV")
    verify = sub.add_parser("verify", help="run a lemma/theorem verification sweep")
    certify = sub.add_parser("certify", help="entirety certificate over Kostant cells")
    dsub = sub.add_parser("decay", help="one-variable decay estimates").add_subparsers(dest="decay_command", required=True)
    l1 = dsub.add_parser("l1", help="L1 norms of derivatives of the bump")
    fourier = dsub.add_parser("fourier", help="envelope decay fit of the transform")
    convert = dsub.add_parser("convert", help="moment-to-pointwise conversion")
    reproduce = sub.add_parser("reproduce-all", help="run the acceptance suite")

    words = [tok for tok in argv if not tok.startswith("-")]
    everything = not words or words[0] not in sub.choices

    def wanted(p: argparse.ArgumentParser) -> bool:
        path = p.prog.split()[1:]  # the command words after "loopcert"
        return everything or words[:len(path)] == path

    if wanted(roots):
        _common_flags(roots)
        roots.add_argument("--type", required=True, dest="type_label")
    if wanted(enum):
        _common_flags(enum)
        enum.add_argument("--type", required=True, dest="type_label")
        enum.add_argument("--max-len", required=True, type=int)
        enum.add_argument("--kostant", action="store_true", help="restrict to minimal coset representatives")
    if wanted(census):
        _common_flags(census)
        census.add_argument("--type", required=True, dest="type_label")
        census.add_argument("--max-len", required=True, type=int)
    if wanted(verify):
        _common_flags(verify, seed=True)
        verify.add_argument("lemma", choices=["lemma22", "lemma23", "lemma351", "thm32", "cor34"])
        verify.add_argument("--type", required=True, dest="type_label")
        verify.add_argument("--max-len", required=True, type=int)
        verify.add_argument("--samples", type=int, default=100)
        verify.add_argument("--r", type=_q, default=Q(1))
        verify.add_argument("--t", type=_q, default=Q(1, 2))
    if wanted(certify):
        _common_flags(certify, prec=True)
        certify.add_argument("--type", required=True, dest="type_label")
        certify.add_argument("--max-len", required=True, type=int)
        certify.add_argument("--r", type=_q, default=Q(1))
        certify.add_argument("--re-nu", type=_q, default=Q(0))
        certify.add_argument("--nu0", type=_q, default=None, help="default: 2 h_dual + 1")
        certify.add_argument("--c1", type=_q, default=Q(1))
        certify.add_argument("--c2", type=_q, default=Q(1))
        certify.add_argument("--c3", type=_q, default=Q(1))
        certify.add_argument("--d", type=_q, default=None, dest="cap_d", help="default: smallest valid")
        certify.add_argument("--big-d", type=_q, default=Q(1))
        certify.add_argument("--csv", default=None, help="also write plot data (fixed column order)")
    if wanted(l1):
        _common_flags(l1, prec=True)
        l1.add_argument("--n", required=True, type=_int_from(0))
    if wanted(fourier):
        _common_flags(fourier, prec=True)
        fourier.add_argument("--range", required=True, help="r_min,r_max")
        fourier.add_argument("--samples", type=int, default=8)
    if wanted(convert):
        _common_flags(convert, prec=True)
        convert.add_argument("--c", required=True, type=_q)
        convert.add_argument("--C", required=True, type=_q, dest="big_c")
        convert.add_argument("--y", required=True, type=_q)
    if wanted(reproduce):
        _common_flags(reproduce, seed=True, prec=True)
        reproduce.add_argument("--profile", choices=["small", "full"], default="small")
        reproduce.add_argument("--out-dir", default=_env_default("out_dir", None))
    return top


def _apply_config_file(argv: list[str]) -> tuple[list[str], str | None]:
    """Expand ``--config FILE`` (or ``--config=FILE``) into ``--key=value``
    flags placed right after the command words, ahead of the flags given on
    the command line, which therefore always win.  A JSON ``true`` turns a
    switch such as ``timing`` on; ``false`` and ``null`` are refused (leaving
    the key out keeps the default), and argparse rejects a key the command
    does not read.  Returns the new argv and the file's path as given."""
    idx = next((i for i, tok in enumerate(argv) if tok == "--config" or tok.startswith("--config=")), None)
    if idx is None:
        return argv, None
    if argv[idx] == "--config":
        if idx + 1 == len(argv):
            raise UsageError("--config needs a file")
        path, rest = argv[idx + 1], argv[:idx] + argv[idx + 2 :]
    else:
        path, rest = argv[idx].partition("=")[2], argv[:idx] + argv[idx + 1 :]
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict):
        raise UsageError(f"{path}: the config file must hold a JSON object")
    extra: list[str] = []
    for key, value in data.items():
        flag = "--" + key.replace("_", "-")
        if value is True:
            extra.append(flag)
        elif value is False or value is None:
            raise UsageError(f"{path}: {key!r} is {json.dumps(value)}; leave the key out to keep its default")
        else:
            extra.append(f"{flag}={value}")
    head = 2 if rest[:1] in (["weyl"], ["decay"]) else 1
    return rest[:head] + extra + rest[head:], path


def _config_echo(args: argparse.Namespace) -> dict:
    return {key: q_str(value) if isinstance(value, Q) else value for key, value in sorted(vars(args).items())}


# ---------------------------------------------------------------------------
# subcommand bodies


def cmd_roots(args) -> Report:
    rs = build_root_system_label(args.type_label)
    results = {
        "type": rs.series,
        "rank": rs.rank,
        "cartan": [list(row) for row in rs.cartan.entries],
        "positive_roots": [list(r) for r in rs.positive_roots],
        "highest_root": list(rs.highest_root),
        "weights": [[q_json(c) for c in w] for w in rs.fundamental_weights],
        "coweights": [[q_json(c) for c in w] for w in rs.fundamental_coweights],
        "rho": [q_json(c) for c in rs.rho],
        "form": [[q_json(c) for c in row] for row in rs.form],
    }
    return Report("roots", _config_echo(args), results)


def cmd_weyl_enumerate(args) -> Report:
    rs = build_root_system_label(args.type_label)
    if args.kostant:
        layers = weyl.enumerate_kostant(rs, args.max_len)
        counts = weyl.full_layer_sizes(rs, layers)
    else:
        layers = weyl.enumerate_by_length(rs, args.max_len)
        counts = [len(layer) for layer in layers]
    lines = []
    for layer in layers:
        for w in layer:
            lines.append(
                {
                    "tilde_matrix": [list(r) for r in w.tilde],
                    "b": list(w.b),
                    "length": w.length,
                    "word": list(w.word or ()),
                }
            )
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "w") as fh:
            for line in lines:
                fh.write(json.dumps(line, sort_keys=True) + "\n")
        args.out = None  # the JSONL file owns the path; envelope goes to stdout
    return Report("weyl_enumerate", _config_echo(args), {"counts": counts, "emitted": len(lines)})


def cmd_weyl_census(args) -> Report:
    rs = build_root_system_label(args.type_label)
    census = conv.growth_census(rs, args.max_len)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["length", "count_full", "count_kostant"])
            for length, (full, kost) in enumerate(zip(census["full"], census["kostant"])):
                writer.writerow([length, full, kost])
        args.out = None  # the CSV owns the path; envelope goes to stdout
    return Report("weyl_census", _config_echo(args), {"full": census["full"], "kostant": census["kostant"]})


def cmd_verify(args) -> Report:
    rs = build_root_system_label(args.type_label)
    rep = ineq.verify(rs, args.lemma, args.max_len, args.samples, args.seed, args.r, args.t)
    report = Report("verify", _config_echo(args), rep.to_results(), failures=list(rep.violations))
    return report


def cmd_certify(args) -> Report:
    rs = build_root_system_label(args.type_label)
    params = conv.default_params(rs, r=args.r, re_nu=args.re_nu, big_d=args.big_d,
                                 c1=args.c1, c2=args.c2, c3=args.c3)
    given = {"nu0": args.nu0, "cap_d": args.cap_d}
    params = dataclasses.replace(params, **{k: v for k, v in given.items() if v is not None})
    params.validate(rs)  # a ValueError is a usage error (exit 2)
    results = conv.certify(rs, params, args.max_len, prec=args.prec)
    failures = [] if results["verdict"] == "DECAYING" else [{"verdict": results["verdict"]}]
    if args.csv:
        Path(args.csv).parent.mkdir(parents=True, exist_ok=True)
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["length", "count", "max_log_term", "shell_sum", "partial_sum"])
            for shell in results["shells"]:
                writer.writerow([shell["length"], shell["count"], shell["max_log_term"],
                                 shell["shell_sum"], shell["partial_sum"]])
    return Report("certify", _config_echo(args), results, failures=failures)


def cmd_decay(args) -> Report:
    if args.decay_command == "l1":
        with mp.workprec(args.prec + 64):
            res = decay.l1_norm(args.n, args.prec)
            tele = decay.l1_norm_extrema(args.n, args.prec) if args.n >= 1 else None
            lo, hi = res["ln_enclosure"]
            results = {
                "n": args.n,
                "ln_norm": mp.nstr(res["ln"], 30),
                "abs_err": _round_out(res["abs_err"], 5, up=True),
                "ln_norm_telescoping": None if tele is None else mp.nstr(tele, 30),
                "ratio_to_(2N)^2N": mp.nstr(res["ln"] - 2 * args.n * mp.log(2 * args.n), 20) if args.n else None,
                "ln_norm_enclosure": [_round_out(lo, 30, up=False), _round_out(hi, 30, up=True)],
            }
        return Report("decay_l1", _config_echo(args), results)
    if args.decay_command == "fourier":
        bounds = args.range.split(",")
        if len(bounds) != 2:
            raise UsageError(f"--range needs r_min,r_max, got {args.range!r}")
        try:
            r_min, r_max = (float(x) for x in bounds)
        except ValueError:
            raise UsageError(f"--range needs numbers r_min,r_max, got {args.range!r}") from None
        if not (math.isfinite(r_min) and math.isfinite(r_max)):
            raise UsageError(f"--range bounds must be finite, got {args.range!r}")
        limit = decay.envelope_r_max()
        if r_max > limit:
            raise UsageError(f"--range r_max must be <= {limit}: the envelope scan reaches r + sqrt(2 pi r)/2 "
                             f"and the oscillation grid covers |r| <= {decay.GRID_R_MAX}; got {args.range!r}")
        fit = decay.fourier_decay_fit(r_min, r_max, args.samples, args.prec)
        results = {
            "exponent_coeff": mp.nstr(fit["exponent_coeff"], 20),
            "power": fit["power"],
            "const": mp.nstr(fit["const"], 20),
            "residual": mp.nstr(fit["residual"], 5),
            "points": [[r, v] for r, v in fit["points"]],
            "target": mp.nstr(mp.sqrt(2 * mp.pi), 20),
        }
        return Report("decay_fourier", _config_echo(args), results)
    # argparse admits only l1, fourier and convert
    res = decay.moment_to_pointwise(args.c, args.big_c, args.y, args.prec)
    results = {
        "best_n": res["best_n"],
        "ln_bound": mp.nstr(res["ln_bound"], 20),
        "achieved_d": res["achieved_d"],
        "asymptote_ratio": mp.nstr(res["asymptote_ratio"], 20),
    }
    return Report("decay_convert", _config_echo(args), results)


def cmd_reproduce(args) -> Report:
    results = acceptance.run_all(seed=args.seed, prec=args.prec, profile=args.profile)
    failures = [r for r in results if not r["pass"]]
    out_dir = args.out_dir
    if out_dir and not args.out:
        args.out = str(Path(out_dir) / "reproduce.json")
    report = Report("reproduce", _config_echo(args), {"criteria": results, "profile": args.profile}, failures=failures)
    return report


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv, config_path = _apply_config_file(argv)
        args = build_parser(argv).parse_args(argv)
        args.config = config_path
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    except (UsageError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    t0 = time.time()
    try:
        if args.command == "roots":
            report = cmd_roots(args)
        elif args.command == "weyl":
            report = cmd_weyl_enumerate(args) if args.weyl_command == "enumerate" else cmd_weyl_census(args)
        elif args.command == "verify":
            report = cmd_verify(args)
        elif args.command == "certify":
            report = cmd_certify(args)
        elif args.command == "decay":
            report = cmd_decay(args)
        else:
            report = cmd_reproduce(args)
    except (UsageError, RootSystemError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (weyl.EnumerationLimit, weyl.ScanBoundError, ArithmeticError, AssertionError) as exc:
        print(f"internal invariant failure: {exc}", file=sys.stderr)
        return 3
    if args.timing:
        report.wall_time_s = time.time() - t0
    text = write_report(report, args.out)
    if not args.out:
        print(text, end="")
    else:
        print(f"{report.kind}: {'ok' if report.ok else 'FAILURES'} -> {args.out}")
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
