import importlib
import json
import math
import os
import pkgutil
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

import weylprod
from weylprod import stochastic
from weylprod.cli import main
from weylprod.irrational import (kronecker_fixed_point, parse_alpha,
                                 surd_from_cf)
from weylprod.stochastic import (PI2_OVER_12, SUBSEQ_CONSTANT, FairCoins,
                                 iid_lil_experiment, kronecker_log_weights,
                                 log_integral, paths_csv,
                                 rademacher_lil_experiment,
                                 subsequence_product_experiment, summary_dict,
                                 variance_integral)


# ----------------------------------------------------------------- oracles
# The per-path loops as they were before the normaliser grid was hoisted out
# of them: every path recomputes sqrt(2 B_N loglog B_N) over all N, and the
# kernel reflects with np.where. The models must reproduce them bit for bit.

def where_kernel(x):
    r = np.where(x > 0.5, 1.0 - x, x)
    return np.log(2.0 * np.sin(np.pi * r))


def ratio_path_oracle(S, B, n_lo):
    idx = np.arange(max(n_lo, 1) - 1, len(S))
    idx = idx[B[idx] > math.e]
    denom = np.sqrt(2.0 * B[idx] * np.log(np.log(B[idx])))
    vals = S[idx] / denom
    k = int(np.argmax(vals))
    return float(vals[k]), int(idx[k])


def block_total(y):
    """A path's sum by the models' rule: the np.sum of each block of
    SUM_CHUNK terms, added in order from the first block's own sum."""
    chunk = stochastic.SUM_CHUNK
    total = float(y[:chunk].sum())
    for s in range(chunk, len(y), chunk):
        total += float(y[s:s + chunk].sum())
    return total


def moments(tot, tot_sq, count):
    mean = tot / count
    return mean, tot_sq / count - mean * mean


def iid_oracle(n_paths, N_max, seed, n_lo=100):
    children = np.random.SeedSequence(seed).spawn(n_paths)
    B = np.arange(1, N_max + 1, dtype=np.float64) * PI2_OVER_12
    ratios, rows = [], []
    tot = tot_sq = 0.0
    for pid, child in enumerate(children):
        u = np.random.default_rng(child).random(N_max)
        u[u == 0.0] = 0.5
        y = where_kernel(u)
        S = np.cumsum(y)
        r, pos = ratio_path_oracle(S, B, n_lo)
        ratios.append(r)
        rows.append((pid, pos + 1, float(S[pos]), float(B[pos]), r))
        tot += block_total(y)
        tot_sq += block_total(y * y)
    details = {"n_lo": n_lo, "reference_constant": 1.0,
               "sigma_constant": math.pi / math.sqrt(6.0),
               "target_variance": PI2_OVER_12, "n_samples": n_paths * N_max}
    return ratios, rows, *moments(tot, tot_sq, n_paths * N_max), details


def rademacher_oracle(alpha, n_paths, N_max, seed, n_lo=100):
    dist = kronecker_fixed_point(alpha, N_max).dist
    w = where_kernel(dist)
    B = np.cumsum(w * w)
    n = np.arange(1, N_max + 1, dtype=np.float64)
    c0_hat = float(np.min(n * dist))
    with np.errstate(divide="ignore"):
        c1_hat = float(np.max(np.abs(w[1:]) / np.log(n[1:])))
    grid = np.unique(np.geomspace(10, N_max, 40).astype(int))
    cond = {int(g): float(c1_hat * math.log(g)
                          / math.sqrt(B[g - 1] / math.log(math.log(B[g - 1]))))
            for g in grid if B[g - 1] > math.e}
    children = np.random.SeedSequence(seed).spawn(n_paths)
    ratios, rows = [], []
    tot = tot_sq = 0.0
    for pid, child in enumerate(children):
        rng = np.random.default_rng(child)
        R = rng.integers(0, 2, size=N_max) * 2.0 - 1.0
        z = R * w
        S = np.cumsum(z)
        r, pos = ratio_path_oracle(S, B, n_lo)
        ratios.append(r)
        rows.append((pid, pos + 1, float(S[pos]), float(B[pos]), r))
        tot += block_total(z)
        tot_sq += block_total(z * z)
    details = {"n_lo": n_lo, "reference_constant": 1.0,
               "target_variance": PI2_OVER_12,
               "B_over_N": float(B[-1] / N_max),
               "c0_hat": c0_hat, "c1_hat": c1_hat,
               "mn_condition_ratio": cond, "alpha": str(alpha)}
    return ratios, rows, *moments(tot, tot_sq, n_paths * N_max), details


def subsequence_oracle(alpha, n_paths, N_terms, seed, k_lo=100, coin=None):
    draws = int(2.3 * N_terms) + 256
    w = where_kernel(kronecker_fixed_point(alpha, draws).dist)
    cum_w = np.cumsum(w)
    children = np.random.SeedSequence(seed).spawn(n_paths)
    K = np.arange(1, N_terms + 1, dtype=np.float64)
    mask = K >= max(k_lo, 3)
    denom = np.sqrt(K[mask] * np.log(np.log(K[mask])))
    ratios, rows, counts = [], [], []
    tot = tot_sq = identity_worst = 0.0
    for pid, child in enumerate(children):
        rng = np.random.default_rng(child)
        if coin is not None:
            bits = np.asarray(coin(rng, draws), dtype=bool)
        else:
            bits = rng.integers(0, 2, size=draws).astype(bool)
        positions = np.flatnonzero(bits) + 1
        if len(positions) < N_terms:
            raise ValueError(f"{len(positions)} heads in {draws} draws")
        positions = positions[:N_terms]
        n_last = int(positions[-1])
        w_sel = w[positions - 1]
        S_sel = np.cumsum(w_sel)
        vals = S_sel[mask] / denom
        k = int(np.argmax(vals))
        pos_terms = int(np.flatnonzero(mask)[k]) + 1
        r = float(vals[k])
        ratios.append(r)
        rows.append((pid, pos_terms, float(S_sel[pos_terms - 1]),
                     float(pos_terms), r))
        # the signed sum of each block's coins, up to its last head, added
        # block by block
        z = np.where(bits[:n_last], w[:n_last], -w[:n_last])
        chunk = stochastic.SUM_CHUNK
        cuts = [0] + [int(positions[min(lo + chunk, N_terms) - 1])
                      for lo in range(0, N_terms, chunk)]
        signed = 0.0
        for a, b in zip(cuts, cuts[1:]):
            signed += float(z[a:b].sum())
        full = float(cum_w[n_last - 1])
        identity_worst = max(identity_worst,
                             abs(float(S_sel[-1]) - 0.5 * (full + signed)))
        counts.append((n_last, int(N_terms)))
        tot += block_total(w_sel)
        tot_sq += block_total(w_sel * w_sel)
    details = {"k_lo": k_lo, "reference_constant": SUBSEQ_CONSTANT,
               "selection_identity_max_abs_diff": identity_worst,
               "selection_counts": counts, "alpha": str(alpha)}
    return ratios, rows, *moments(tot, tot_sq, n_paths * N_terms), details


def raw_words(coins):
    """The raw 64-bit words whose 32-bit halves, low half first, show
    `coins` (1 heads, 0 tails) in their top bits."""
    return (np.asarray(coins, dtype=np.uint32) << np.uint32(31)).view(
        np.uint64)


class ConstantCoin:
    """A generator stub whose coins all show `face` (1 heads, 0 tails)."""

    def __init__(self, face):
        self.face = face
        self.bit_generator = self

    def random_raw(self, size):
        return raw_words(np.full(2 * size, self.face))


def heads(rng, size):
    return np.ones(size, dtype=bool)


def tails(rng, size):
    return np.zeros(size, dtype=bool)


def constant_coin(monkeypatch, face):
    """Make every path's coin show `face` every time."""
    monkeypatch.setattr(stochastic, "FairCoins",
                        lambda rng: FairCoins(ConstantCoin(face)))


def assert_matches(stats, oracle):
    ratios, rows, mean, var, details = oracle
    assert stats.rows == rows
    assert stats.lil_ratios == ratios
    assert stats.empirical_mean == mean
    assert stats.empirical_variance == var
    assert stats.details == details


ALPHAS = ("sqrt2m1", "golden", "(15+1*sqrt(5))/22", "(-6+1*sqrt(60))/6")


@pytest.mark.parametrize("seed,n_paths,N_max,n_lo", [
    (0, 3, 1000, 100), (5, 4, 2500, 100), (123, 2, 4097, 1),
    (77, 5, 1500, 1000)])
def test_iid_matches_oracle(seed, n_paths, N_max, n_lo, monkeypatch):
    monkeypatch.setattr(stochastic, "N_LO", n_lo)
    stats = iid_lil_experiment(n_paths, N_max, seed)
    assert_matches(stats, iid_oracle(n_paths, N_max, seed, n_lo))


@pytest.mark.parametrize("k,seed,n_paths,N_max,n_lo", [
    (0, 1, 3, 1000, 100), (1, 9, 4, 2500, 100), (2, 42, 2, 613, 1),
    (3, 7, 3, 100, 100), (0, 3, 2, 12, 1)])
def test_rademacher_matches_oracle(k, seed, n_paths, N_max, n_lo,
                                   monkeypatch):
    monkeypatch.setattr(stochastic, "N_LO", n_lo)
    alpha = parse_alpha(ALPHAS[k])
    stats = rademacher_lil_experiment(alpha, n_paths, N_max, seed)
    assert_matches(stats, rademacher_oracle(alpha, n_paths, N_max, seed,
                                            n_lo))


@pytest.mark.parametrize("k,seed,n_paths,N_terms,k_lo", [
    (0, 4, 3, 1000, 100), (1, 11, 4, 2200, 100), (2, 5, 2, 500, 1),
    (3, 8, 3, 300, 300)])
def test_subsequence_matches_oracle(k, seed, n_paths, N_terms, k_lo,
                                    monkeypatch):
    monkeypatch.setattr(stochastic, "N_LO", k_lo)
    alpha = parse_alpha(ALPHAS[k])
    stats = subsequence_product_experiment(alpha, n_paths, N_terms, seed)
    assert_matches(stats, subsequence_oracle(alpha, n_paths, N_terms, seed,
                                             k_lo))


def test_subsequence_all_heads_matches_oracle(golden, monkeypatch):
    constant_coin(monkeypatch, 1)
    stats = subsequence_product_experiment(golden, 3, 1200, seed=1)
    assert_matches(stats, subsequence_oracle(golden, 3, 1200, 1, coin=heads))


def test_subsequence_short_coin_raises_like_oracle(golden, monkeypatch):
    # a coin short of N_terms heads ends the run in the model and in the
    # oracle alike: both raise once the path's coin budget is drawn
    constant_coin(monkeypatch, 0)
    with pytest.raises(ValueError, match="heads"):
        subsequence_product_experiment(golden, 2, 300, seed=1)
    with pytest.raises(ValueError, match="heads"):
        subsequence_oracle(golden, 2, 300, 1, coin=tails)


def test_rademacher_n_max_below_n_lo(sqrt2m1, monkeypatch):
    def no_orbit(*args):
        raise AssertionError("orbit computed before the size check")

    monkeypatch.setattr(stochastic, "kronecker_fixed_point_blocks", no_orbit)
    for N_max in (0, 1, 50, 99):
        with pytest.raises(ValueError, match="n_lo"):
            rademacher_lil_experiment(sqrt2m1, 2, N_max, seed=0)


def test_rademacher_empty_ratio_grid(sqrt2m1, monkeypatch):
    # B_N stays below e for the first few N, so n_lo = 1 with N_max = 2
    # leaves no admissible N once the orbit is known
    monkeypatch.setattr(stochastic, "N_LO", 1)
    with pytest.raises(ValueError, match="ratio grid is empty"):
        rademacher_lil_experiment(sqrt2m1, 2, 2, seed=0)


@pytest.mark.parametrize("N_max", range(3, 10))
def test_rademacher_below_condition_grid(N_max, monkeypatch):
    # the side-condition grid starts at N = 10; shorter orbits either have
    # no admissible N or report the condition only at N <= N_max (with
    # a_1 = 20, B_N passes e at N = 8)
    monkeypatch.setattr(stochastic, "N_LO", 1)
    alpha = surd_from_cf([20], [1])
    try:
        stats = rademacher_lil_experiment(alpha, 2, N_max, seed=0)
    except ValueError as exc:
        assert "ratio grid is empty" in str(exc)
    else:
        assert all(g <= N_max for g in stats.details["mn_condition_ratio"])
        assert all(2 <= row[1] <= N_max for row in stats.rows)


# ------------------------------------------------------- streamed blocks
# The models stream their summands in blocks of SUM_CHUNK terms; a small
# chunk puts many block edges inside orbits the oracles still hold whole.

def small_blocks(monkeypatch, chunk):
    """Cut every block at `chunk` terms: SUM_CHUNK patched in each weylprod
    module that binds it, so the models' blocks and the kernel's agree."""
    for info in pkgutil.iter_modules(weylprod.__path__):
        module = importlib.import_module(f"weylprod.{info.name}")
        if hasattr(module, "SUM_CHUNK"):
            monkeypatch.setattr(module, "SUM_CHUNK", chunk)


@pytest.mark.parametrize("seed,N_max,n_lo", [
    (3, 1000, 100),     # below one block
    (4, 1025, 100),     # one past a block
    (5, 4099, 1),       # not a multiple of 8
    (6, 20001, 100),    # across many blocks
    (7, 4099, 1500)])   # the ratio starts past the first block
def test_iid_in_small_blocks_matches_oracle(seed, N_max, n_lo, monkeypatch):
    small_blocks(monkeypatch, 1024)
    monkeypatch.setattr(stochastic, "N_LO", n_lo)
    stats = iid_lil_experiment(3, N_max, seed)
    assert_matches(stats, iid_oracle(3, N_max, seed, n_lo))


@pytest.mark.parametrize("k,seed,N_max,n_lo", [
    (0, 3, 1000, 100), (1, 4, 1025, 100), (2, 5, 4099, 1),
    (3, 6, 20001, 100), (0, 7, 4099, 1500), (1, 8, 300, 100)])
@pytest.mark.parametrize("chunk", [77, 128, 1000, 1024])
def test_rademacher_in_small_blocks_matches_oracle(k, seed, N_max, n_lo,
                                                   chunk, monkeypatch):
    small_blocks(monkeypatch, chunk)
    monkeypatch.setattr(stochastic, "N_LO", n_lo)
    alpha = parse_alpha(ALPHAS[k])
    stats = rademacher_lil_experiment(alpha, 3, N_max, seed)
    assert_matches(stats, rademacher_oracle(alpha, 3, N_max, seed, n_lo))


@pytest.mark.parametrize("k,seed,N_terms,k_lo", [
    (0, 3, 400, 100),     # below one block
    (1, 4, 1025, 100),    # one past a block
    (2, 5, 4099, 1),      # not a multiple of 8
    (3, 6, 20001, 100),   # across many blocks
    (0, 7, 4099, 1500)])  # the ratio starts past the first block
@pytest.mark.parametrize("chunk", [77, 1024])
def test_subsequence_in_small_blocks_matches_oracle(k, seed, N_terms, k_lo,
                                                    chunk, monkeypatch):
    # a block's coins run past its last head, and those are the next
    # block's first coins
    small_blocks(monkeypatch, chunk)
    monkeypatch.setattr(stochastic, "N_LO", k_lo)
    alpha = parse_alpha(ALPHAS[k])
    stats = subsequence_product_experiment(alpha, 3, N_terms, seed)
    assert_matches(stats, subsequence_oracle(alpha, 3, N_terms, seed, k_lo))


def test_path_loop_keeps_the_first_of_tied_maxima(monkeypatch):
    # S_N = 1 and B_N = 100 at every N: the ratio ties at every N, across
    # four blocks of 128 terms, and each row is read at the first
    # admissible N
    small_blocks(monkeypatch, 128)

    def draw(path, lo, hi):
        y = np.zeros(hi - lo)
        y[0] = 1.0 if lo == 0 else 0.0
        return y

    stats = stochastic._path_statistics(
        "ties", 2, 0, 512, 2.0,
        lambda lo, hi: (np.full(hi - lo, 100.0), None), draw, None, {}, 2)
    assert [row[:4] for row in stats.rows] == [(0, 100, 1.0, 100.0),
                                               (1, 100, 1.0, 100.0)]


# ----------------------------------------------------------------- threads
# The iid model splits each block's paths into `_cores()` groups and runs
# every group but the first on a thread of its own; no output may depend on
# how many there are.

@pytest.mark.parametrize("seed,N_max,n_lo,chunk", [
    (3, 5000, 100, None),    # below one block
    (6, 20001, 100, 1024),   # across many blocks
    (8, 20001, 100, 77),     # across many blocks of 77 terms
    (7, 4099, 1500, 1024),   # the ratio starts past the first block
    (9, 4099, 1500, 1000)])  # the same past blocks of 1000 terms
def test_iid_equal_for_any_thread_count(seed, N_max, n_lo, chunk,
                                        monkeypatch):
    n_paths = 5
    if chunk is not None:
        small_blocks(monkeypatch, chunk)
    monkeypatch.setattr(stochastic, "N_LO", n_lo)
    kernel = stochastic.log_two_sin_pi_array
    main_thread = threading.get_ident()
    results = {}
    # more threads than cores, switching as often as the interpreter can
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for threads in (1, 2, 3, n_paths + 4):
            idents = set()

            def traced(x, out=None):
                idents.add(threading.get_ident())
                return kernel(x, out)

            monkeypatch.setattr(stochastic, "_cores", lambda: threads)
            monkeypatch.setattr(stochastic, "log_two_sin_pi_array", traced)
            results[threads] = iid_lil_experiment(n_paths, N_max, seed)
            # one thread runs every path on this one; more run some elsewhere
            assert (idents == {main_thread}) == (threads == 1)
    finally:
        sys.setswitchinterval(interval)
    assert all(stats == results[1] for stats in results.values())
    assert_matches(results[1], iid_oracle(n_paths, N_max, seed, n_lo))


def test_out_of_memory_on_a_path_thread_exits_3(tmp_path, monkeypatch,
                                                capsys):
    # a MemoryError raised in a helper thread's draw reaches the CLI as a
    # MemoryError (exit 3), after every helper has finished, and no output
    # file is written
    main_thread = threading.get_ident()
    kernel = stochastic.log_two_sin_pi_array

    def fails_off_main(x, out=None):
        if threading.get_ident() != main_thread:
            raise MemoryError()
        return kernel(x, out)

    monkeypatch.setattr(stochastic, "_cores", lambda: 3)
    monkeypatch.setattr(stochastic, "log_two_sin_pi_array", fails_off_main)
    running = threading.active_count()
    code = main(["mc", "iid", "--paths", "6", "--n-max", "2000", "--out",
                 str(tmp_path / "run")])
    assert code == 3
    assert capsys.readouterr().err == "error: out of memory\n"
    assert list(tmp_path.iterdir()) == []
    assert threading.active_count() == running


_PINNED_MC = """
import os, sys
if sys.argv[2] == "pinned":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from weylprod import stochastic
from weylprod.cli import main
print(stochastic._cores())
sys.exit(main(["mc", "iid", "--paths", "5", "--n-max", "140001",
               "--seed", "3", "--out", sys.argv[1]]))
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="no CPU affinity call on this platform")
def test_iid_bytes_equal_pinned_to_one_cpu(tmp_path):
    # a fresh interpreter pinned to one CPU runs the paths on one thread,
    # an unpinned one on every CPU it may use; both write the same bytes
    files = {}
    for how in ("pinned", "unpinned"):
        proc = subprocess.run(
            [sys.executable, "-c", _PINNED_MC, str(tmp_path / how), how],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        if how == "pinned":
            assert proc.stdout.split()[0] == "1"
        files[how] = [(tmp_path / f"{how}.{ext}").read_bytes()
                      for ext in ("csv", "json")]
    assert files["pinned"] == files["unpinned"]


@pytest.mark.parametrize("model", ["iid", "rademacher"])
def test_streamed_models_in_flat_memory(model, sqrt2m1, monkeypatch):
    # numpy reports its buffers to tracemalloc: at blocks of 2^10 terms an
    # orbit 8 times longer peaks within a few blocks' bytes, where one
    # N-length array held whole would add 8 bytes a term. The first run
    # pays the one-time allocations
    small_blocks(monkeypatch, 1 << 10)

    def run(N_max):
        if model == "iid":
            iid_lil_experiment(2, N_max, seed=1)
        else:
            rademacher_lil_experiment(sqrt2m1, 2, N_max, seed=1)

    run(1 << 12)
    peaks = []
    for N_max in (1 << 14, 1 << 17):
        tracemalloc.start()
        try:
            run(N_max)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < peaks[0] + 8 * (1 << 10) * 8, peaks


# ----------------------------------------------------------------- seeding

@pytest.mark.parametrize("n", [1, 2, 7, 1000])
@settings(max_examples=15)
@given(hst.integers(0, 1 << 300))
@example(0)
@example(2 ** 32 - 1)
@example(2 ** 32)
@example(2 ** 128)
@example(2 ** 200 + 3)
def test_spawned_states_are_spawns(n, seed):
    # numpy's SeedSequence is the oracle: each row is a spawned child's
    # PCG64 seed words, and the generator seeded from it draws the child's
    # stream
    children = np.random.SeedSequence(seed).spawn(n)
    states = stochastic._spawned_states(seed, n)
    assert states.shape == (n, 4) and states.dtype == np.uint64
    want = np.array([c.generate_state(4, np.uint64) for c in children])
    assert np.array_equal(states, want)
    for child, spawned in zip(children, stochastic._spawned_seeds(seed, n)):
        got = np.random.default_rng(spawned).bit_generator.random_raw(3)
        want = np.random.default_rng(child).bit_generator.random_raw(3)
        assert np.array_equal(got, want)


def test_spawned_states_refuse_what_spawn_would_not_give():
    with pytest.raises(ValueError, match="seed must be >= 0"):
        stochastic._spawned_states(-1, 1)
    # keys from 2^32 on take two words; refused before anything is built
    with pytest.raises(ValueError, match="two words"):
        stochastic._spawned_states(0, (1 << 32) + 1)
    (spawned,) = stochastic._spawned_seeds(0, 1)
    with pytest.raises(ValueError, match="PCG64"):
        spawned.generate_state(8, np.uint32)


# --------------------------------------------------------------- fair coins

@settings(max_examples=60)
@given(hst.integers(1, 1 << 15), hst.integers(0, 2 ** 32 - 1))
@example(1, 0)
@example(2, 0)
@example(3, 1)
@example(6006, 2)
@example(15001, 3)
def test_fair_coins_are_generator_integers(n, seed):
    got = FairCoins(np.random.default_rng(seed)).take(n)
    assert got.dtype == bool
    want = np.random.default_rng(seed).integers(0, 2, n)
    assert np.array_equal(got, want.astype(bool))


@settings(max_examples=60)
@given(hst.lists(hst.integers(1, 300), min_size=1, max_size=12),
       hst.integers(0, 2 ** 32 - 1))
@example([1, 1], 0)
@example([3, 5, 1, 2], 1)
@example([65536, 65536, 8929], 2)
def test_fair_coins_in_chunks_are_one_take(chunks, seed):
    # an odd take that is not the last keeps the unused half of its last
    # word for the next take
    coins = FairCoins(np.random.default_rng(seed))
    parts = [coins.take(n) for n in chunks]
    assert [len(p) for p in parts] == chunks
    whole = FairCoins(np.random.default_rng(seed)).take(sum(chunks))
    assert np.array_equal(np.concatenate(parts), whole)


def test_fair_coins_are_the_top_bits_of_raw_halves():
    words = np.random.default_rng(9).bit_generator.random_raw(2)
    halves = [int(words[0]) & 0xFFFFFFFF, int(words[0]) >> 32,
              int(words[1]) & 0xFFFFFFFF]
    coins = FairCoins(np.random.default_rng(9))
    got = [bool(coins.take(1)[0]) for _ in halves]
    assert got == [h >> 31 == 1 for h in halves]


def test_signed_weights_flip_only_the_sign_bit():
    w = np.array([0.5, -1.25, 3.0, -0.0, 1e-300, -7.5, 0.0, -0.0, 5e-324,
                  -5e-324])
    heads = np.array([True, False, True, True, False, False, False, False,
                      False, True])
    got = stochastic._signed(heads, w)
    assert np.array_equal(got, np.where(heads, w, -w))
    assert np.array_equal(np.signbit(got), np.signbit(np.where(heads, w, -w)))


# -------------------------------------------------------------- quadrature

def test_variance_integral_value():
    res = variance_integral()
    assert abs(res.value - PI2_OVER_12) < 1e-9
    assert res.error_estimate < 1e-10


def test_log_integral_vanishes():
    res = log_integral()
    assert abs(res.value) < 1e-10
    assert res.error_estimate < 1e-10


def test_integrals_against_tanh_sinh_oracle():
    import mpmath
    with mpmath.mp.workprec(120):
        ref = mpmath.quad(lambda x: mpmath.log(2 * mpmath.sinpi(x)) ** 2,
                          [0, mpmath.mpf(1) / 2, 1])
    assert variance_integral().value == pytest.approx(float(ref), abs=1e-12)


# --------------------------------------------------------------------- iid

def test_iid_reproducible():
    a = iid_lil_experiment(5, 2000, seed=1)
    b = iid_lil_experiment(5, 2000, seed=1)
    assert a.lil_ratios == b.lil_ratios
    assert a.rows == b.rows
    assert a.empirical_variance == b.empirical_variance


def test_iid_moments():
    stats = iid_lil_experiment(20, 50000, seed=3)
    total = 20 * 50000
    assert abs(stats.empirical_variance - PI2_OVER_12) < 0.01 * PI2_OVER_12
    assert abs(stats.empirical_mean) < 3 * math.sqrt(PI2_OVER_12 / total)


def test_iid_ratio_band():
    stats = iid_lil_experiment(50, 20000, seed=5)
    med = float(np.median(stats.lil_ratios))
    assert 0.4 <= med <= 1.6
    assert all(math.isfinite(r) for r in stats.lil_ratios)


def test_iid_preconditions():
    with pytest.raises(ValueError):
        iid_lil_experiment(0, 2000, seed=1)
    with pytest.raises(ValueError):
        iid_lil_experiment(5, 999, seed=1)


# --------------------------------------------------------------- rademacher

def test_rademacher_variance_convergence(sqrt2m1):
    stats = rademacher_lil_experiment(sqrt2m1, 2, 10 ** 5, seed=2)
    assert abs(stats.details["B_over_N"] - PI2_OVER_12) < 0.02 * PI2_OVER_12


def test_rademacher_weight_bound(sqrt2m1):
    stats = rademacher_lil_experiment(sqrt2m1, 2, 10 ** 5, seed=2)
    # |w_n| <= c1 log n held with a modest constant, and ||n alpha|| >= c0/n
    assert 0 < stats.details["c1_hat"] < 5.0
    assert stats.details["c0_hat"] > 0.1


def test_rademacher_lil_condition_decreasing(sqrt2m1):
    stats = rademacher_lil_experiment(sqrt2m1, 2, 10 ** 5, seed=2)
    cond = stats.details["mn_condition_ratio"]
    ns = sorted(n for n in cond if n >= 1000)
    vals = [cond[n] for n in ns]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_rademacher_all_plus_hook(sqrt2m1):
    # all signs +1 is the deterministic weight sum, which stays within the
    # log^2 N shape: |sum_{n<=N} w_n| / log^2 N < 2 for 10 <= N <= 20000
    S = np.cumsum(kronecker_log_weights(sqrt2m1, 20000))
    N = np.arange(10, 20001)
    assert float(np.max(np.abs(S[N - 1]) / np.log(N) ** 2)) < 2.0


def test_rademacher_ratio_band(sqrt2m1):
    stats = rademacher_lil_experiment(sqrt2m1, 50, 20000, seed=8)
    med = float(np.median(stats.lil_ratios))
    assert 0.4 <= med <= 1.6


# -------------------------------------------------------------- subsequence

def test_subsequence_identity_and_counts(sqrt2m1):
    stats = subsequence_product_experiment(sqrt2m1, 10, 5000, seed=4)
    assert stats.details["selection_identity_max_abs_diff"] < 1e-8
    for n_last, kept in stats.details["selection_counts"]:
        assert abs(kept - n_last / 2) <= 3 * math.sqrt(n_last)


def test_subsequence_ratio_band(sqrt2m1):
    stats = subsequence_product_experiment(sqrt2m1, 50, 20000, seed=6)
    med = float(np.median(stats.lil_ratios))
    assert 0.4 * SUBSEQ_CONSTANT <= med <= 1.6 * SUBSEQ_CONSTANT


def test_subsequence_reproducible(sqrt2m1):
    a = subsequence_product_experiment(sqrt2m1, 4, 2000, seed=9)
    b = subsequence_product_experiment(sqrt2m1, 4, 2000, seed=9)
    assert a.lil_ratios == b.lil_ratios and a.rows == b.rows


def test_subsequence_all_heads_coin(sqrt2m1, monkeypatch):
    constant_coin(monkeypatch, 1)
    stats = subsequence_product_experiment(sqrt2m1, 2, 1000, seed=0)
    # every index selected: the selected sum is the full deterministic sum
    w = kronecker_log_weights(sqrt2m1, 1000)
    pid, n, s_n, b_n, r = stats.rows[0]
    assert s_n == pytest.approx(float(np.cumsum(w)[n - 1]))
    assert stats.details["selection_identity_max_abs_diff"] < 1e-10


def test_subsequence_tails_coin_stops(sqrt2m1, monkeypatch):
    # a coin that never shows heads raises once its budget is drawn
    constant_coin(monkeypatch, 0)
    with pytest.raises(ValueError, match="0 heads in 2556 draws"):
        subsequence_product_experiment(sqrt2m1, 2, 1000, seed=0)


class CountedCoin:
    """A generator stub whose coins show `heads` heads, then tails; it
    counts the coins its raw words hold."""

    def __init__(self, heads):
        self.heads, self.read = heads, 0
        self.bit_generator = self

    def random_raw(self, size):
        coins = np.arange(self.read, self.read + 2 * size) < self.heads
        self.read += 2 * size
        return raw_words(coins)


@pytest.mark.parametrize("chunk", [None, 128])
def test_short_coin_raises_within_the_budget(chunk, sqrt2m1, monkeypatch):
    # 2556 = int(2.3 * 1000) + 256 coins, one head short of 1000 terms: the
    # path reads those coins and no more, in one take or in blocks of 128
    # terms, and raises; with one more head it keeps the first 1000 coins
    if chunk is not None:
        small_blocks(monkeypatch, chunk)
    coin = CountedCoin(999)
    monkeypatch.setattr(stochastic, "FairCoins", lambda rng: FairCoins(coin))
    with pytest.raises(ValueError, match="999 heads in 2556 draws"):
        subsequence_product_experiment(sqrt2m1, 1, 1000, seed=0)
    assert coin.read == 2556
    coin = CountedCoin(1000)
    stats = subsequence_product_experiment(sqrt2m1, 1, 1000, seed=0)
    assert coin.read <= 2556
    assert stats.details["selection_counts"] == [(1000, 1000)]


# ------------------------------------------------------------------ output

def test_csv_json_round_trip(tmp_path, capsys):
    # the files `mc` writes, from paths_csv and summary_dict
    stats = iid_lil_experiment(8, 2000, seed=11)
    assert main(["mc", "iid", "--paths", "8", "--n-max", "2000", "--seed",
                 "11", "--out", str(tmp_path / "mc")]) == 0
    capsys.readouterr()
    csv_path, json_path = tmp_path / "mc.csv", tmp_path / "mc.json"
    assert csv_path.read_text() == paths_csv(stats)
    # recompute the summary statistics from the CSV alone
    lines = csv_path.read_text().strip().splitlines()[1:]
    ratios = [float(line.split(",")[4]) for line in lines]
    summary = json.loads(json_path.read_text())
    assert summary["ratio_mean"] == float(np.mean(np.array(ratios)))
    assert summary["ratio_variance"] == float(np.var(np.array(ratios)))
    med = float(np.quantile(np.array(ratios), 0.5))
    assert summary["ratio_quantiles"]["q50"] == med
    assert summary_dict(stats) == summary


def _numpy_quantiles(ratios):
    # the oracle; where b - a overflows, numpy warns and Python does not,
    # and both give the same inf or NaN, which is mapped to a string here
    with np.errstate(over="ignore", invalid="ignore"):
        return _nan_free({f"q{int(q * 100):02d}": float(np.quantile(ratios, q))
                          for q in (0.1, 0.25, 0.5, 0.75, 0.9)})


def _nan_free(qs):
    return {k: "nan" if math.isnan(v) else v for k, v in qs.items()}


@settings(max_examples=300)
@given(hst.lists(hst.floats(allow_nan=False, allow_infinity=False)
                 | hst.sampled_from([-0.0, 0.0, 0.5, 1.0]),
                 min_size=1, max_size=40))
@example([-0.0])
@example([-1e308, -1e308, 1e308])
def test_ratio_quantiles_are_numpy_quantiles(ratios):
    # floats that compare equal are the same bits but for the sign of a
    # zero, which numpy's partition and np.sort may order apart; small
    # pools make ties
    ratios = np.array(ratios)
    assert _nan_free(stochastic._ratio_quantiles(ratios)) == \
        _numpy_quantiles(ratios)


@pytest.mark.parametrize("n", [299, 300, 301, 1000])
def test_ratio_quantiles_at_path_counts(n):
    rng = np.random.default_rng(n)
    for ratios in (rng.normal(size=n), np.round(rng.normal(size=n), 1)):
        assert _nan_free(stochastic._ratio_quantiles(ratios)) == \
            _numpy_quantiles(ratios)
