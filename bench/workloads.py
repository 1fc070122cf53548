"""The benchmark's four workloads: inputs drawn from a seed, and op lists.

A workload is a fixed list of operations ("ops") that is repeated in rounds.
Every round draws fresh inputs from the workload's random stream, so no
alpha repeats within a process and the package's per-alpha caches
(`bounds._trace_cache`, `stochastic._weight_cache`) never hit, which is what
a user running one CLI command per process pays.

Sizes are base sizes times `scale` (the smoke mode uses a small scale) and
do not depend on the seed, so that every round and every run does the same
amount of work; the seed picks the alphas, the mc seeds and, in the rational
workload, parameters that leave the work unchanged. The number of rounds is
fixed by the run length and `ROUND_S`, never by how fast the rounds ran, so
that one seed gives the same inputs on every commit. Ops are kept short
(about 0.05-0.3 s each), so that a run has many rounds and the median of
each op over them is steady while the host's speed drifts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

WORKLOADS = ("kronecker-verify", "rational-discrepancy", "monte-carlo",
             "figure-series")

# Nominal seconds of one round, untraced, on a quiet 2-core Xeon host; a run
# of --seconds S does round(S / ROUND_S) rounds.
ROUND_S = {"kronecker-verify": 0.8, "rational-discrepancy": 0.6,
           "monte-carlo": 0.65, "figure-series": 0.37}


def rounds_for(workload: str, seconds: float, traced: bool) -> int:
    """Rounds of a run: at least one, and an even number >= 2 when traced,
    so that untraced and traced rounds pair up."""
    n = max(1, round(seconds / ROUND_S[workload]))
    return max(2, n + n % 2) if traced else n


@dataclass
class Op:
    """One operation of a round.

    `argv` is a `weylprod` command line, or for `kind == "star-discrepancy"`
    the single argument N of the library call
    `star_discrepancy(van_der_corput(N))`, which the CLI does not expose.
    `points` is the number of sequence terms the op processes, counted from
    its inputs: N per verify/figure op, paths x N per mc op. `calib` names
    the hostspeed loop its time is scaled by: "mpf" for ops whose time is
    mostly mpmath points and logs, else the loop that tracked the op best.
    """

    kind: str
    label: str
    argv: list
    points: int
    outputs: list = field(default_factory=list)
    info: dict = field(default_factory=dict)
    calib: str = "mpf"


def convergent_denominators(quotients):
    """q_1, q_2, ... of [0; a_1, a_2, ...] by q_i = a_i q_{i-1} + q_{i-2}."""
    qs = []
    prev, cur = 0, 1
    for a in quotients:
        prev, cur = cur, a * cur + prev
        qs.append(cur)
    return qs


class Inputs:
    """Seeded source of alphas, sizes and mc seeds for one process."""

    PREFIX_LEN = 5
    PERIOD_LEN = 2
    MAX_QUOTIENT = 3
    MAX_DRAWS = 100_000

    def __init__(self, seed: int, scale: float):
        self.rng = random.Random(seed)
        self.scale = scale
        self._seen = set()

    def size(self, base: int, minimum: int = 1) -> int:
        return max(minimum, round(base * self.scale))

    def mc_seed(self) -> int:
        return self.rng.randrange(1 << 31)

    def alpha(self, q_window=None) -> dict:
        """A fresh [0; prefix, (period)^inf] with partial quotients <= 3.

        With `q_window = (lo, hi)` the alpha is redrawn until one of its
        convergent denominators lies in [lo, hi], so that a check run up to
        a best-approximation denominator does a near-constant amount of work.
        About 50 of the 2187 alphas have one within 2% below 3000, enough
        for the rounds of one process.
        """
        # imported here: run.py imports this module without ./src on its path
        from weylprod.irrational import surd_from_cf

        for _ in range(self.MAX_DRAWS):
            prefix = tuple(self.rng.randint(1, self.MAX_QUOTIENT)
                           for _ in range(self.PREFIX_LEN))
            period = tuple(self.rng.randint(1, self.MAX_QUOTIENT)
                           for _ in range(self.PERIOD_LEN))
            if (prefix, period) in self._seen:
                continue
            q = None
            if q_window is not None:
                quotients = list(prefix) + list(period) * 64
                hits = [x for x in convergent_denominators(quotients)
                        if q_window[0] <= x <= q_window[1]]
                if not hits:
                    continue
                q = hits[-1]
            self._seen.add((prefix, period))
            return {"spec": str(surd_from_cf(prefix, period)),
                    "prefix": list(prefix), "period": list(period), "q": q}
        raise RuntimeError(f"no unused alpha with a denominator in "
                           f"{q_window} after {self.MAX_DRAWS} draws")


def _verify(theorem: str, *args) -> list:
    return ["verify", theorem, *[str(a) for a in args]]


def kronecker_verify(inp: Inputs, out: str) -> list:
    """Six bound checkers on Kronecker orbits of 1.5e3..3e3 terms."""
    ops = []
    for theorem in ("ostrowski", "cesaro", "type-growth"):
        a = inp.alpha()
        n = inp.size(3000, 16)
        info = {"alpha": a, "n": n}
        extra = []
        if theorem == "type-growth":
            info["t"] = 1.5
            extra = ["--t", "1.5"]
        ops.append(Op("verify", theorem,
                      _verify(theorem, "--alpha", a["spec"], "--n-max", n,
                              *extra, "--out", f"{out}/{theorem}.json"),
                      n, [f"{out}/{theorem}.json"], info))
    target = inp.size(3000, 16)
    a = inp.alpha(q_window=(49 * target // 50, target))
    ops.append(Op("verify", "kronecker-sandwich",
                  _verify("kronecker-sandwich", "--alpha", a["spec"],
                          "--q-max", a["q"], "--out", f"{out}/sandwich.json"),
                  a["q"] - 1, [f"{out}/sandwich.json"], {"alpha": a}))
    a = inp.alpha()
    n = inp.size(1500, 16)
    ops.append(Op("verify", "conjectures",
                  _verify("conjectures", "--alpha", a["spec"], "--n-max", n,
                          "--out", f"{out}/conjectures.json"),
                  n, [f"{out}/conjectures.json"], {"alpha": a, "n": n}))
    a = inp.alpha()
    n = inp.size(2000, 32)
    ops.append(Op("verify", "hlawka-kronecker",
                  _verify("hlawka", "--gen", "kronecker", "--alpha", a["spec"],
                          "--n-max", n, "--out", f"{out}/hlawka.json"),
                  n, [f"{out}/hlawka.json"], {"alpha": a, "n": n}))
    return ops


def rational_discrepancy(inp: Inputs, out: str) -> list:
    """Prefix and exact discrepancy on exact rational points; no mpf points."""
    ops = []
    n = inp.size(6000, 32)
    ops.append(Op("verify", "hlawka-vdc",
                  _verify("hlawka", "--gen", "vdc", "--n-max", n,
                          "--out", f"{out}/hlawka_vdc.json"),
                  n, [f"{out}/hlawka_vdc.json"], {"n": n}, "int"))
    n = inp.size(500000, 16)
    ops.append(Op("verify", "hlawka-grid",
                  _verify("hlawka", "--gen", "grid", "--N", n,
                          "--out", f"{out}/hlawka_grid.json"),
                  n, [f"{out}/hlawka_grid.json"], {"n": n}, "int"))
    n = inp.size(15000, 64)
    ops.append(Op("star-discrepancy", "star-discrepancy-vdc", [n], n,
                  info={"n": n}, calib="bigint"))
    s_max = 17 if inp.scale >= 0.5 else 8
    ops.append(Op("verify", "vdc-limits",
                  _verify("vdc-limits", "--s-max", s_max,
                          "--out", f"{out}/vdc_limits.json"),
                  2 ** (s_max + 1) - 1, [f"{out}/vdc_limits.json"],
                  {"s_max": s_max}, "int"))
    n = inp.size(640, 16)
    eps = round(inp.rng.uniform(0.08, 0.12), 4)
    ops.append(Op("verify", "extremal-sweep",
                  _verify("extremal", "--n-max", n, "--epsilon", eps,
                          "--format", "csv", "--out", f"{out}/sweep.csv"),
                  n, [f"{out}/sweep.csv"], {"n": n, "epsilon": eps},
                  "bigint"))
    return ops


def monte_carlo(inp: Inputs, out: str) -> list:
    """Many paths over short orbits; outputs must reproduce byte for byte."""
    ops = []
    paths = max(2, round(300 * inp.scale))
    n = inp.size(15000, 1000)
    seed = inp.mc_seed()
    ops.append(Op("mc", "iid",
                  ["mc", "iid", "--paths", str(paths), "--n-max", str(n),
                   "--seed", str(seed), "--out", f"{out}/iid"],
                  paths * n, [f"{out}/iid.csv", f"{out}/iid.json"],
                  {"paths": paths, "n": n, "seed": seed}, "int"))
    a = inp.alpha()
    n = inp.size(6000, 200)
    seed = inp.mc_seed()
    ops.append(Op("mc", "rademacher",
                  ["mc", "rademacher", "--alpha", a["spec"], "--paths",
                   str(paths), "--n-max", str(n), "--seed", str(seed),
                   "--out", f"{out}/rademacher"],
                  paths * n,
                  [f"{out}/rademacher.csv", f"{out}/rademacher.json"],
                  {"alpha": a, "paths": paths, "n": n, "seed": seed}))
    a = inp.alpha()
    terms = inp.size(2500, 200)
    seed = inp.mc_seed()
    ops.append(Op("mc", "subsequence",
                  ["mc", "subsequence", "--alpha", a["spec"], "--paths",
                   str(paths), "--terms", str(terms), "--seed", str(seed),
                   "--out", f"{out}/subsequence"],
                  paths * terms,
                  [f"{out}/subsequence.csv", f"{out}/subsequence.json"],
                  {"alpha": a, "paths": paths, "n": terms, "seed": seed}))
    return ops


FIGURE_VARIANTS = (("none", "csv"), ("one_over_N", "json"),
                   ("one_over_N_squared", "csv"))


def figure_series(inp: Inputs, out: str) -> list:
    """`figure` on the 40-digit mpf path: all normalizers, both formats."""
    ops = []
    for normalizer, fmt in FIGURE_VARIANTS:
        a = inp.alpha()
        n = inp.size(2000, 16)
        path = f"{out}/figure_{normalizer}.{fmt}"
        ops.append(Op("figure", f"figure-{normalizer}-{fmt}",
                      ["figure", "--alpha", a["spec"], "--n-max", str(n),
                       "--normalizer", normalizer, "--format", fmt,
                       "--out", path],
                      n, [path],
                      {"alpha": a, "n": n, "normalizer": normalizer,
                       "format": fmt}))
    return ops


BUILDERS = {
    "kronecker-verify": kronecker_verify,
    "rational-discrepancy": rational_discrepancy,
    "monte-carlo": monte_carlo,
    "figure-series": figure_series,
}
