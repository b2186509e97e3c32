"""The three workloads: inputs made from the seed, the operations that are
timed, and the checks run on their outputs after the timed region.

Every operation is one call into loopcert's public surface.  Where the
command line exposes it, the operation is ``loopcert.cli.main([...])`` run
in-process, so argument handling, report building, schema validation and
report writing are all on the measured path.  Each operation starts with
loopcert's caches emptied, as a separate command-line invocation would.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction as Q
from pathlib import Path
from typing import Any, Callable

from mpmath import mp

import loopcert.cli as cli
from loopcert import affine, cartan, decay, weyl

import oracles

# exact-suite: rank-2 sweeps at and beyond the acceptance lengths (A1 40,
# A2/C2/G2 12), higher ranks at short lengths
CENSUS = (("A1", 60), ("A2", 16), ("C2", 16), ("G2", 16),
          ("A3", 5), ("B3", 5), ("D4", 4), ("F4", 4), ("E6", 3))
AUDITS = (("A2", 1000), ("C2", 200), ("G2", 200))  # verify cor34 at length 8: type, samples
AUDIT_LEN = 8
# certify: type, max_len, r, slack in d = nu0 - re_nu + slack (1 is the CLI default)
CERTIFY = (("A1", 40, 16, 1), ("A2", 20, 80, 2), ("C2", 30, 80, 2))
DUAL_COXETER = {"A1": 2, "A2": 3, "C2": 3}
DUALITY_SAMPLES = 200
# the kept failing operation: verify never passes --r/--t on to the audit
FAULTY_THM32 = ("--type", "A2", "--max-len", "3", "--samples", "10", "--r", "2", "--t", "1/3")

FIT_ARGS = ("--range", "50,400", "--samples", "8")
PARSEVAL = (0, 128, 9)  # N, bits, r_cut: the smallest cut meeting 1e-6 at N = 0
SIGMA_HAT_BITS = (128, 256)

L1_ORDERS = tuple(range(1, 21))
TV_ORDERS = (1, 2, 3, 4)  # orders checked against the total-variation oracle
L2_ORDERS = (0, 1, 2, 3)


@dataclass
class Op:
    name: str
    call: Callable[[], Any]
    check: Callable[[Any, dict], list[str]]
    known_fault: str | None = None  # set on the one operation kept although it fails


def _cache_clears():
    seen, out = set(), []
    for name, module in list(sys.modules.items()):
        if name == "loopcert" or name.startswith("loopcert."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear") and id(value) not in seen:
                    seen.add(id(value))
                    out.append(value.cache_clear)
    return out


_CACHE_CLEARS = _cache_clears()


def fresh_caches() -> None:
    """Empty every lru_cache in loopcert, as a new process would start."""
    for clear in _CACHE_CLEARS:
        clear()


def _cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def _oracle(state: dict, key, compute):
    """Oracle values depend only on the inputs: compute each once per run."""
    cache = state["oracle"]
    if key not in cache:
        cache[key] = compute()
    return cache[key]


def _report_op(name: str, argv: list[str], out: Path, check, known_fault=None) -> Op:
    """A CLI operation writing its JSON report to ``out``; the check sees the
    parsed report."""

    def run_check(output, state):
        rc, _ = output
        report = json.loads(out.read_text())
        problems = [] if rc == 0 else [f"exit code {rc}"]
        return problems + check(report, state)

    return Op(name, lambda: _cli(argv + ["--out", str(out)]), run_check, known_fault)


# ---------------------------------------------------------------------------
# exact-suite


def _length_identities(label: str, max_len: int):
    rs = cartan.build_root_system_label(label)
    records = []
    for depth, layer in enumerate(weyl.enumerate_by_length(rs, max_len)):
        for w in layer:
            records.append((depth, weyl.length_im(rs, w), weyl.inverted_roots_scan(rs, w).roots,
                            weyl.inverted_roots_word(rs, w).roots))
    return records


def _duality_inputs(rng: random.Random, label: str, max_len: int):
    """Seeded (element index, weight, Cartan element) triples."""
    n_elements = sum(oracles.bott_counts(label, max_len))
    rank = int(label[1:])

    def rational():
        return Q(rng.randrange(-8, 9), rng.randrange(1, 5))

    triples = []
    for _ in range(DUALITY_SAMPLES):
        lam = affine.AffineWeight(cartan.Weight(tuple(rational() for _ in range(rank))), rational(), rational())
        x = affine.CartanElement(tuple(rational() for _ in range(rank)), rational(), rational())
        triples.append((rng.randrange(n_elements), lam, x))
    return triples


def _duality(label: str, max_len: int, triples):
    """<lam, w X> and <w^{-1} lam, X> for each seeded triple."""
    rs = cartan.build_root_system_label(label)
    elements = [w for layer in weyl.enumerate_by_length(rs, max_len) for w in layer]
    out = []
    for idx, lam, x in triples:
        w = elements[idx]
        out.append((affine.affine_pairing(rs, lam, weyl.act_on_cartan(rs, w, x)),
                    affine.affine_pairing(rs, weyl.act_on_weight(rs, weyl.inverse(rs, w), lam), x)))
    return out


def exact_suite(seed: int, out_dir: Path) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for label, max_len in CENSUS:
        argv = ["weyl", "census", "--type", label, "--max-len", str(max_len), "--out", str(out_dir / f"census-{label}.csv")]

        def check_census(output, state, label=label, max_len=max_len):
            rc, text = output
            doc = json.loads(text)
            return ([] if rc == 0 else [f"exit code {rc}"]) + oracles.check_census(label, max_len, doc["full"], doc["kostant"])

        ops.append(Op(f"weyl census {label} {max_len}", lambda argv=argv: _cli(argv), check_census))
    for label, max_len in CENSUS:
        ops.append(Op(f"length identities {label} {max_len}",
                      lambda label=label, max_len=max_len: _length_identities(label, max_len),
                      lambda records, state, label=label, max_len=max_len:
                      oracles.check_length_identities(label, max_len, records)))
    for lemma in ("lemma23", "lemma351"):
        for label, max_len in CENSUS:
            argv = ["verify", lemma, "--type", label, "--max-len", str(max_len)]
            ops.append(_report_op(
                f"verify {lemma} {label} {max_len}", argv, out_dir / f"{lemma}-{label}.json",
                lambda rep, state, label=label, max_len=max_len: oracles.check_no_violations(rep)
                + oracles.check_kostant_checked(label, max_len, rep["records"][0]["kostant_checked"])))
    for label, samples in AUDITS:
        argv = ["verify", "cor34", "--type", label, "--max-len", str(AUDIT_LEN), "--samples", str(samples),
                "--seed", str(seed)]
        ops.append(_report_op(
            f"verify cor34 {label} {AUDIT_LEN} x{samples}", argv, out_dir / f"cor34-{label}.json",
            lambda rep, state, label=label: oracles.check_no_violations(rep) + oracles.check_c1(label, rep["constants"]["C1"])
            + oracles.check_kostant_checked(label, AUDIT_LEN, rep["records"][0]["kostant_checked"])
            + oracles.check_audit_inputs(rep, "1", "1/2")))
    for label, max_len, r, slack in CERTIFY:
        two_h = 2 * DUAL_COXETER[label]
        for re_nu in (-10, 0, two_h):
            d = two_h + 1 - re_nu + slack
            argv = ["certify", "--type", label, "--max-len", str(max_len), "--r", str(r), "--re-nu", str(re_nu),
                    "--d", str(d)]
            ops.append(_report_op(
                f"certify {label} re_nu={re_nu}", argv, out_dir / f"certify-{label}-{re_nu}.json",
                lambda rep, state, label=label, max_len=max_len: oracles.check_certificate(label, max_len, rep)))
    triples = _duality_inputs(rng, "A2", AUDIT_LEN)
    ops.append(Op(f"action duality A2 {AUDIT_LEN} x{DUALITY_SAMPLES}", lambda: _duality("A2", AUDIT_LEN, triples),
                  lambda pairs, state: oracles.check_duality(pairs)))
    ops.append(_report_op(
        "verify thm32 A2 --r 2 --t 1/3", ["verify", "thm32", *FAULTY_THM32, "--seed", str(seed)],
        out_dir / "thm32-A2-r2.json",
        lambda rep, state: oracles.check_no_violations(rep) + oracles.check_audit_inputs(rep, "2", "1/3"),
        known_fault="src/loopcert/cli.py cmd_verify never passes --r/--t to inequalities.run_audit"))
    return ops


# ---------------------------------------------------------------------------
# fourier


def _sigma_hat_points(rng: random.Random) -> tuple[Q, ...]:
    """Two points on the 512-panel grid (r <= 128) and one on the 2048-panel
    grid, on a 1/64 lattice; small enough for the quadrature oracle."""
    return (Q(rng.randrange(2 * 64, 32 * 64), 64), Q(rng.randrange(32 * 64, 96 * 64), 64),
            Q(rng.randrange(129 * 64, 192 * 64), 64))


def fourier(seed: int, out_dir: Path) -> list[Op]:
    rng = random.Random(seed)
    points = _sigma_hat_points(rng)
    ops = [_report_op("decay fourier 50,400 x8", ["decay", "fourier", *FIT_ARGS], out_dir / "fourier.json",
                      lambda rep, state: oracles.check_fit(rep["exponent_coeff"])
                      + ([] if len(rep["points"]) == 8 else [f"{len(rep['points'])} fit points, expected 8"]))]
    n, bits, r_cut = PARSEVAL

    def check_parseval(res, state):
        return oracles.check_parseval(res["lhs"], res["rhs"], _oracle(state, "l2_sigma", oracles.l2_norm_sigma))

    ops.append(Op(f"parseval_check N={n} {bits}-bit r_cut={r_cut}",
                  lambda: decay.parseval_check(n, bits, r_cut=r_cut), check_parseval))
    for bits in SIGMA_HAT_BITS:
        def check_sweep(values, state):
            problems = []
            for r, value in zip(points, values):
                problems += oracles.check_sigma_hat(r, value, _oracle(state, r, lambda: oracles.sigma_hat_quad(r)))
            return problems

        ops.append(Op(f"sigma_hat {bits}-bit at {', '.join(map(str, points))}",
                      lambda bits=bits: [decay.sigma_hat(r, bits) for r in points], check_sweep))
    return ops


# ---------------------------------------------------------------------------
# norms


def norms(seed: int, out_dir: Path) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for n in L1_ORDERS:
        def check_l1(rep, state, n=n):
            state.setdefault("l1", {})[n] = rep["ln_norm"]
            problems = oracles.check_close(f"N={n} quadrature vs telescoping", rep["ln_norm"],
                                           rep["ln_norm_telescoping"], "1e-20")
            if n == 1:
                problems += oracles.check_unit_norm(rep["ln_norm"])
            if n in TV_ORDERS:
                tv = _oracle(state, ("tv", n), lambda: oracles.l1_norm_total_variation(n))
                problems += oracles.check_close(f"N={n} vs total variation", rep["ln_norm"], tv, "1e-20")
            if n == L1_ORDERS[-1]:
                problems += oracles.check_ratio_chain(state["l1"])
            return problems

        ops.append(_report_op(f"decay l1 N={n}", ["decay", "l1", "--n", str(n)], out_dir / f"l1-{n}.json", check_l1))
    for n in L2_ORDERS:
        def check_l2(value, state, n=n):
            state.setdefault("l2", {})[n] = value
            problems = []
            if n == 0:
                with mp.workdps(60):
                    ratio = value / _oracle(state, "l2_sigma", oracles.l2_norm_sigma)
                problems += oracles.check_close("||sigma||_2 vs quadrature", ratio, 1, "1e-30")
            if n == L2_ORDERS[-1]:
                problems += oracles.check_log_convex(state["l2"])
            return problems

        ops.append(Op(f"l2_norm N={n}", lambda n=n: decay.l2_norm(n, 256), check_l2))
    # y near e^20, where the conversion's asymptote ratio is within 2% of -1/e
    with mp.workdps(40):
        y = Q(int(mp.exp(20) * (1 + mp.mpf(rng.randrange(-500, 501)) / 10**4) * 10**6), 10**6)
    ops.append(_report_op(f"decay convert y={float(y):.6g}", ["decay", "convert", "--c", "1", "--C", "1", "--y", str(y)],
                          out_dir / "convert.json",
                          lambda rep, state: oracles.check_conversion(Q(1), Q(1), y, rep)))
    return ops


def build(workload: str, seed: int, out_dir: Path) -> list[Op]:
    out_dir.mkdir(parents=True, exist_ok=True)
    return {"exact-suite": exact_suite, "fourier": fourier, "norms": norms}[workload](seed, out_dir)
