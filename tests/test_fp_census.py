"""The census kernel against its oracle, :mod:`repro.fp.ops`.

A census op must return the oracle's bits and charge its counts and
non-trivial memo operands, on ordinary operands (the kernel's stacked
fast path) and on denormals, NaN, Inf and extreme magnitudes (where it
falls back to the oracle), with broadcasting.
"""

import numpy as np
import pytest

from repro.fp import FPContext, RoundingMode
from repro.fp.ops import reduced_add, reduced_mul, reduced_sub
from repro.memo.memo_table import MemoBank

ORACLES = {"add": reduced_add, "sub": reduced_sub, "mul": reduced_mul}

#: Values the census bypasses: zeros, ±1 and powers of two.
TRIVIAL = np.array([0.0, -0.0, 1.0, -1.0, 2.0, 0.5, -4.0, 0.125, 1024.0],
                   dtype=np.float32)
#: Values outside the kernel's fast window: denormals, NaN, Inf and
#: extreme magnitudes, plus values near its edges.
SPECIAL = np.array([1e-39, -3e-40, np.nan, np.inf, -np.inf, 3e38, 1e-31,
                    2e-20, 5e-20, 1e19, 1.9e38, 1.0000001, 0.9999999],
                   dtype=np.float32)


def _operands(rng, n, kind):
    """Random normals; ``kind`` >= 1 mixes in trivial values, 2 also
    values outside the fast window."""
    values = (rng.standard_normal(n)
              * 10.0 ** rng.integers(-6, 6, n)).astype(np.float32)
    for pool in (TRIVIAL, SPECIAL)[:kind]:
        picks = rng.choice(n, rng.integers(0, n + 1), replace=False)
        values[picks] = rng.choice(pool, len(picks))
    return values


def _cases(seed, trials=45):
    rng = np.random.default_rng(seed)
    for trial in range(trials):
        n = int(rng.integers(1, 50))
        kind = trial % 3
        a = _operands(rng, n, kind)
        b = _operands(rng, n, kind)
        if trial % 5 == 0:
            b = b[:1]
        elif trial % 7 == 0:
            a, b = a.reshape(-1, 1)[:3], _operands(rng, 4, kind)
        yield a, b


@pytest.mark.parametrize("mode", ["rn", "jam", "trunc"])
@pytest.mark.parametrize("precision", [0, 3, 9, 16, 23])
def test_census_ops_match_the_oracle(mode, precision):
    for a, b in _cases(precision):
        for op, oracle in ORACLES.items():
            with np.errstate(all="ignore"):
                want, sample = oracle(a, b, precision,
                                      RoundingMode.parse(mode), True)
            ctx = FPContext({"lcp": precision}, mode=mode, memo=MemoBank())
            with ctx.in_phase("lcp"), np.errstate(all="ignore"):
                got = getattr(ctx, op)(a, b)
            assert got.shape == want.shape
            assert got.view(np.uint32).tolist() == \
                want.view(np.uint32).tolist()
            counter = ctx._stats[("lcp", op)]
            assert (counter.total, counter.conventional_trivial,
                    counter.extended_trivial) == (
                sample.total, sample.conventional_trivial,
                sample.extended_trivial)
            queued = ctx._probes["mul" if op == "mul" else "add"]
            pairs = (np.concatenate([p for _, p, _ in queued], axis=1)
                     if queued else np.empty((2, 0), dtype=np.uint32))
            assert pairs[0].tolist() == \
                sample.nontrivial_operands[0].tolist()
            assert pairs[1].tolist() == \
                sample.nontrivial_operands[1].tolist()


def test_queued_probes_match_probing_op_by_op():
    rng = np.random.default_rng(3)
    values = rng.choice(np.linspace(1.01, 1.4, 9).astype(np.float32),
                        (6, 24))
    direct = MemoBank()
    ctx = FPContext({"lcp": 6}, memo=MemoBank())
    with ctx.in_phase("lcp"):
        for row in range(0, 6, 2):
            ctx.add(values[row], values[row + 1])
            ctx.mul(values[row], values[row + 1])
            for op, oracle in (("add", reduced_add), ("mul", reduced_mul)):
                _, sample = oracle(values[row], values[row + 1], 6,
                                   ctx.mode, True)
                direct.probe(op, *sample.nontrivial_operands)
    assert len(ctx._probes["add"]) == 3        # not probed yet
    stats = ctx.stats                          # reading flushes
    assert not ctx._probes["add"] and not ctx._probes["mul"]
    for op in ("add", "mul"):
        assert stats[("lcp", op)].memo_hits == \
            direct.tables[op].stats.hits
        assert stats[("lcp", op)].memo_lookups == \
            direct.tables[op].stats.lookups
