"""Correctness checks on the outputs of each op.

`fast_problems` runs on every op of every round: exit codes, `passed`, row
counts. `oracle_problems` runs on the first round only, after the timed
rounds, and compares outputs against references computed here without the
package's numeric code:

- log P_N from an mpmath evaluation of {k alpha} with alpha summed from its
  continued fraction (figure rows, and the type-growth report);
- exact van der Corput star-discrepancy from integer arithmetic, plus the
  package's brute-force anchor oracle on a prefix;
- extremal-set log-products from the package's term-by-term oracle
  `direct_log_product`;
- for sampled Monte Carlo paths, S_N, B_N and the path's maximal LIL ratio
  recomputed from numpy's seeded generator with weights evaluated by mpmath
  from the continued fraction of alpha;
- a rerun of one Monte Carlo op, compared byte for byte.

Each function returns a list of problems; an empty list means the op passed.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import mpmath
import numpy as np

ORACLE_PREC = 160
# the package's own trace error bound at 112 bits and N <= 2e4 is below
# 1e-20, so this tolerance is the checkers' 1e-9 alone
LOG_TOL = 1e-9
FIGURE_SAMPLES = 8
# Monte Carlo paths recomputed per op, the precision of their Kronecker
# weights, and the tolerance on S_N relative to sum |terms|: the package
# and the reference sum the same doubles in the same order, and differ only
# in the last bits of each term
MC_SAMPLES = 3
MC_WEIGHT_PREC = 96
MC_TOL = 1e-9
# defaults of `weylprod mc`: the ratio's first admissible N (or K)
MC_N_LO = 100


def _read_report(path: str) -> dict:
    with open(path, encoding="ascii") as fh:
        return json.load(fh)


def _count_lines(path: str) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh)


def extremal_rows(n_max: int) -> int:
    """Rows of `verify extremal --n-max n_max`: even N >= 8, M = 1..N//8."""
    return sum(max(1, N // 8) for N in range(8, n_max + 1, 2))


def fast_problems(op, res) -> list:
    if res["error"]:
        return [res["error"]]
    if op.kind == "star-discrepancy":
        d = res["value"].d_star
        n = op.info["n"]
        if not isinstance(d, Fraction) or not Fraction(1, 2 * n) <= d <= 1:
            return [f"star_discrepancy returned {d!r}"]
        return []
    if res["rc"] != 0:
        return [f"exit code {res['rc']}"]
    if op.kind == "figure":
        n = op.info["n"]
        rows = (len(_read_report(op.outputs[0])["series"])
                if op.info["format"] == "json"
                else _count_lines(op.outputs[0]) - 2)
        return [] if rows == n else [f"{rows} rows, expected {n}"]
    if op.kind == "mc":
        paths = op.info["paths"]
        summary = _read_report(op.outputs[1])
        problems = []
        if _count_lines(op.outputs[0]) != paths + 1:
            problems.append("per-path CSV has the wrong row count")
        if summary["n_paths"] != paths:
            problems.append(f"summary n_paths {summary['n_paths']} != {paths}")
        return problems
    if op.label == "extremal-sweep":
        report = json.loads(res["stdout"])
        rows = _count_lines(op.outputs[0]) - 1
        problems = [] if report["passed"] else ["passed is false"]
        if rows != extremal_rows(op.info["n"]):
            problems.append(f"sweep has {rows} rows")
        return problems
    report = _read_report(op.outputs[0])
    problems = [] if report["passed"] is True else ["passed is not true"]
    if op.label == "hlawka-grid":
        # the grid k/(N+1) has P_N = N + 1 exactly
        p = report["empirical_constants"]["P_N"]
        if abs(p / (op.info["n"] + 1) - 1.0) > 1e-9:
            problems.append(f"grid P_N = {p!r}")
    return problems


def cf_alpha(prefix, period, prec: int):
    """[0; prefix, (period)^inf] summed backwards from a deep truncation.

    Convergent denominators grow at least like phi^k, so k terms give an
    error below phi^(-2k); the term count keeps that under 2^-(prec+16).
    """
    depth = (prec + 16) * 100 // 138 + 1
    quotients = list(prefix) + list(period) * (depth // len(period) + 1)
    with mpmath.mp.workprec(prec + 32):
        x = mpmath.mpf(0)
        for a in reversed(quotients):
            x = 1 / (a + x)
    return x


def reference_log_products(alpha: dict, ns) -> dict:
    """{n: log P_n} for P_n = prod_{k<=n} 2 sin(pi {k alpha})."""
    want = set(ns)
    out = {}
    a = cf_alpha(alpha["prefix"], alpha["period"], ORACLE_PREC + 32)
    with mpmath.mp.workprec(ORACLE_PREC):
        total = mpmath.mpf(0)
        for k in range(1, max(want) + 1):
            total += mpmath.log(2 * mpmath.sinpi((k * a) % 1))
            if k in want:
                out[k] = total
    return out


def _figure_rows(op) -> dict:
    path = op.outputs[0]
    if op.info["format"] == "json":
        series = _read_report(path)["series"]
        return {r["N"]: r["value"] for r in series}
    rows = {}
    with open(path, encoding="ascii") as fh:
        for line in fh:
            if line[0].isdigit():
                n, v = line.rstrip("\n").split(",")
                rows[int(n)] = v
    return rows


def _figure_problems(op) -> list:
    n = op.info["n"]
    sample = sorted({max(1, n * i // FIGURE_SAMPLES)
                     for i in range(1, FIGURE_SAMPLES + 1)})
    ref = reference_log_products(op.info["alpha"], sample)
    rows = _figure_rows(op)
    power = {"none": 0, "one_over_N": 1, "one_over_N_squared": 2}
    problems = []
    with mpmath.mp.workprec(ORACLE_PREC):
        for k in sample:
            got = (mpmath.log(mpmath.mpf(rows[k]))
                   + power[op.info["normalizer"]] * mpmath.log(k))
            if abs(got - ref[k]) > LOG_TOL:
                problems.append(f"row {k}: log P = {mpmath.nstr(got, 20)}, "
                                f"reference {mpmath.nstr(ref[k], 20)}")
    return problems


def _type_growth_problems(op) -> list:
    """log P_N = C_at_N_max * log 2 * N^(1 - 1/t) from the report."""
    n, t = op.info["n"], op.info["t"]
    c = _read_report(op.outputs[0])["empirical_constants"]["C_at_N_max"]
    got = c * math.log(2.0) * n ** (1.0 - 1.0 / t)
    ref = float(reference_log_products(op.info["alpha"], [n])[n])
    if abs(got - ref) > LOG_TOL + 1e-12 * abs(ref):
        return [f"log P_{n} = {got!r}, reference {ref!r}"]
    return []


def vdc_star_discrepancy(n: int) -> Fraction:
    """Exact D_N* of the first n van der Corput points over the common
    denominator 2^L, by the sorted-order formula in Python integers."""
    L = n.bit_length()
    den = 1 << L
    nums = sorted(int(format(k, "b")[::-1], 2) << (L - k.bit_length())
                  for k in range(1, n + 1))
    best = max(max(x * n - i * den, (i + 1) * den - x * n)
               for i, x in enumerate(nums))
    return Fraction(best, den * n)


def _star_discrepancy_problems(op, res) -> list:
    # imported here: the worker puts ./src on its path after importing this
    from weylprod.discrepancy import (brute_force_star_discrepancy,
                                      star_discrepancy)
    from weylprod.sequences import van_der_corput

    n = op.info["n"]
    problems = []
    ref = vdc_star_discrepancy(n)
    if res["value"].d_star != ref:
        problems.append(f"D* = {res['value'].d_star}, reference {ref}")
    prefix = van_der_corput(min(n, 256))
    exact = star_discrepancy(prefix).d_star
    brute = brute_force_star_discrepancy(prefix.points)
    eps = Fraction(1, 1 << 40)
    if not brute <= exact <= brute + eps:
        problems.append(f"prefix D* = {exact}, brute force {brute}")
    return problems


def _extremal_problems(op) -> list:
    """logP of sampled sweep rows against the package's direct sum."""
    from weylprod.extremal import ExtremalConfig, direct_log_product

    problems = []
    with open(op.outputs[0], encoding="ascii") as fh:
        rows = fh.read().splitlines()[1:]
    for line in rows[::max(1, len(rows) // FIGURE_SAMPLES)]:
        fields = line.split(",")
        N, M, lp = int(fields[0]), int(fields[1]), float(fields[3])
        ref = direct_log_product(ExtremalConfig(N, M))
        if abs(lp - ref) > LOG_TOL * (1.0 + abs(ref)):
            problems.append(f"N={N} M={M}: logP {lp!r}, reference {ref!r}")
    return problems


def kronecker_weights(alpha: dict, n: int) -> list:
    """[log(2 sin(pi {k alpha})) for k = 1..n] as doubles, via mpmath."""
    a = cf_alpha(alpha["prefix"], alpha["period"], MC_WEIGHT_PREC + 32)
    with mpmath.mp.workprec(MC_WEIGHT_PREC):
        return [float(mpmath.log(2 * mpmath.sinpi((k * a) % 1)))
                for k in range(1, n + 1)]


def _log_two_sin_pi(u: float) -> float:
    return math.log(2.0 * math.sin(math.pi * min(u, 1.0 - u)))


def mc_path(op, pid: int, weights) -> tuple:
    """(terms, B, normaliser) of path `pid`, from numpy's generator seeded
    as `weylprod mc` seeds it: SeedSequence(seed).spawn(paths)[pid].

    `B[k]` is the B_N column's value at N = k + 1 and `normaliser(k)` the
    ratio's denominator there, None where the ratio is not taken.
    """
    info = op.info
    n = info["n"]
    child = np.random.SeedSequence(info["seed"]).spawn(info["paths"])[pid]
    rng = np.random.default_rng(child)
    if op.label == "iid":
        terms = [_log_two_sin_pi(u) if u else math.log(2.0)
                 for u in rng.random(n).tolist()]
        B = [k * (math.pi ** 2 / 12.0) for k in range(1, n + 1)]
    elif op.label == "rademacher":
        signs = rng.integers(0, 2, size=n).tolist()
        terms = [w if r else -w for r, w in zip(signs, weights)]
        B = np.cumsum(np.square(weights[:n])).tolist()
    else:
        need = int(2.3 * n) + 256
        while True:
            kept = np.flatnonzero(rng.integers(0, 2, size=need))
            if len(kept) >= n:
                break
            need = int(1.5 * need)
        terms = [weights[i] for i in kept[:n].tolist()]
        B = [float(k) for k in range(1, n + 1)]
    if op.label == "subsequence":
        def normaliser(k):
            K = k + 1
            return (math.sqrt(K * math.log(math.log(K)))
                    if K >= max(MC_N_LO, 3) else None)
    else:
        def normaliser(k):
            b = B[k]
            return (math.sqrt(2.0 * b * math.log(math.log(b)))
                    if k + 1 >= MC_N_LO and b > math.e else None)
    return terms, B, normaliser


def _mc_problems(op) -> list:
    """Sampled per-path CSV rows against `mc_path` recomputations."""
    info = op.info
    weights = None
    if op.label != "iid":
        need = info["n"] if op.label == "rademacher" else (
            int(2.3 * info["n"]) + 256)
        weights = kronecker_weights(info["alpha"], need)
    with open(op.outputs[0], encoding="ascii") as fh:
        rows = fh.read().splitlines()[1:]
    picks = sorted({0, len(rows) // 2, len(rows) - 1})[:MC_SAMPLES]
    problems = []
    for line in (rows[i] for i in picks):
        pid, N, S_N, B_N, ratio = line.split(",")
        pid, N = int(pid), int(N)
        terms, B, normaliser = mc_path(op, pid, weights)
        total = abs_total = 0.0
        best = -math.inf
        partial = []
        for k, t in enumerate(terms):
            total += t
            abs_total += abs(t)
            partial.append(total)
            norm = normaliser(k)
            if norm is not None:
                best = max(best, total / norm)
        tol = MC_TOL * (1.0 + abs_total)
        if not 1 <= N <= len(terms) or normaliser(N - 1) is None:
            problems.append(f"path {pid}: row at N={N} outside the ratio's "
                            f"range")
            continue
        if abs(float(S_N) - partial[N - 1]) > tol:
            problems.append(f"path {pid}: S_{N} = {S_N}, reference "
                            f"{partial[N - 1]!r}")
        if abs(float(B_N) - B[N - 1]) > MC_TOL * B[N - 1]:
            problems.append(f"path {pid}: B_{N} = {B_N}, reference "
                            f"{B[N - 1]!r}")
        if abs(float(ratio) - best) > tol / normaliser(N - 1):
            problems.append(f"path {pid}: max ratio {ratio}, reference "
                            f"{best!r}")
    return problems


def oracle_problems(op, res) -> list:
    """Reference comparisons for one first-round op (the mc rerun is
    separate)."""
    if op.kind == "mc":
        return _mc_problems(op)
    if op.kind == "figure":
        return _figure_problems(op)
    if op.kind == "star-discrepancy":
        return _star_discrepancy_problems(op, res)
    if op.label == "type-growth":
        return _type_growth_problems(op)
    if op.label == "extremal-sweep":
        return _extremal_problems(op)
    return []


def same_bytes(paths_a, paths_b) -> list:
    problems = []
    for a, b in zip(paths_a, paths_b):
        with open(a, "rb") as fa, open(b, "rb") as fb:
            if fa.read() != fb.read():
                problems.append(f"{b} differs from {a}")
    return problems
