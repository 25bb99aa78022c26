"""End-to-end reproduction of the bundled reference construction.

Ten steps walk from the fixture distribution to the dualized 175-atom
expansion, comparing every stage against the shipped expected values.  Steps
run independently: a failure is recorded and the remaining steps still
execute, so a broken fixture yields a full report rather than a stack trace.
"""

import json
from dataclasses import asdict, dataclass
from functools import cached_property
from importlib import resources

import numpy as np

from .core import rank_vector_from_json, subset_format, subset_parse
from .entropy import distribution_from_json, entropy_vector
from .inequalities import mmrv
from .matroid import block_collapse, expanded_mmrv, helgason_expand
from .polymatroid import (
    ROUNDING_TOL,
    basis_r,
    dual,
    linear_combine,
    round_to_integer,
    tighten,
    validate_polymatroid,
)

MMRV_ENTROPY_EXPECTED = 0.108494
MMRV_ENTROPY_TOL = 1e-4
MMRV_DUAL_EXPECTED = -0.0715364
MMRV_DUAL_TOL = 1e-5
LEFT_COLUMN_TOL = 1e-4
EXPANSION_SIZE = 175


def fixture_doc(name: str) -> dict:
    return json.loads(resources.files("polyshare.data").joinpath(name).read_text())


@dataclass(frozen=True)
class StepRecord:
    index: int
    name: str
    expected: str
    computed: str
    tolerance: str
    passed: bool
    note: str = ""


@dataclass(frozen=True)
class ReproductionReport:
    steps: tuple[StepRecord, ...]

    @property
    def passed(self) -> bool:
        return all(s.passed for s in self.steps)

    def as_dict(self) -> dict:
        return {"passed": self.passed, "steps": [asdict(s) for s in self.steps]}

    def format_table(self) -> str:
        lines = []
        for s in self.steps:
            mark = "PASS" if s.passed else "FAIL"
            line = f"[{s.index:2d}] {mark}  {s.name}: computed {s.computed}, expected {s.expected}"
            if s.tolerance:
                line += f" (tolerance {s.tolerance})"
            if s.note:
                line += f"\n          {s.note}"
            lines.append(line)
        lines.append("reproduction " + ("PASSED" if self.passed else "FAILED"))
        return "\n".join(lines)


class _Artifacts:
    """Shared artifacts, each built on first use.  A failed build raises in
    every step that uses it, so each of those steps records the failure."""

    @cached_property
    def m_xi(self):
        return entropy_vector(distribution_from_json(fixture_doc("table1.json")))

    @cached_property
    def combo(self):
        doc = fixture_doc("coefficients.json")
        g = self.m_xi.ground
        terms = [(doc["entropy_scale"], self.m_xi)]
        for key, coeff in doc["terms"].items():
            terms.append((coeff, basis_r(g, subset_parse(g, key))))
        return linear_combine(terms)

    @cached_property
    def middle(self):
        return validate_polymatroid(rank_vector_from_json(fixture_doc("table2_middle.json")))

    @cached_property
    def N(self):
        return tighten(self.middle)

    @cached_property
    def E(self):
        return helgason_expand(self.N)


def _vector_match(got, want, ground):
    """None when equal, else a short description of the first mismatch."""
    diff = np.nonzero(got.values != want.values)[0]
    if diff.size == 0:
        return None
    m = int(diff[0])
    return (
        f"{diff.size} subset(s) differ, first {subset_format(ground, m)!r}: "
        f"{got.values[m]} vs {want.values[m]}"
    )


def _step_entropy_valid(ctx):
    m_xi = ctx.m_xi  # entropy_vector validates on construction
    return f"valid polymatroid on {m_xi.ground.n} elements", True, ""


def _step_mmrv_entropy(ctx):
    value = mmrv(ctx.m_xi)
    return f"{value:.7f}", abs(value - MMRV_ENTROPY_EXPECTED) <= MMRV_ENTROPY_TOL, ""


def _step_mmrv_dual(ctx):
    value = mmrv(dual(ctx.m_xi))
    return f"{value:.8f}", abs(value - MMRV_DUAL_EXPECTED) <= MMRV_DUAL_TOL, ""


def _step_combination(ctx):
    combo = ctx.combo
    middle = ctx.middle
    rounded = round_to_integer(combo)
    residual = float(np.abs(combo.values - rounded.values).max())
    mismatch = _vector_match(rounded, middle.rank, middle.ground)
    if mismatch:
        return f"integer vector differs: {mismatch}", False, ""
    return (
        "all 31 integers match the fixture",
        True,
        f"worst rounding residual {residual:.2e}",
    )


def _step_tighten(ctx):
    tight = ctx.N
    expected = rank_vector_from_json(fixture_doc("table2_tight.json"))
    mismatch = _vector_match(tight.rank, expected, tight.ground)
    if mismatch:
        return mismatch, False, ""
    middle = ctx.middle
    spot = middle.rank_of("a") - (middle.rank_of("a,b,c,d,e") - middle.rank_of("b,c,d,e"))
    return "all 31 integers match the fixture", spot == tight.rank_of("a"), ""


def _step_dual_mmrv(ctx):
    value = mmrv(dual(ctx.middle))
    return str(value), value == -1, ""


def _step_expansion_size(ctx):
    atoms, sizes = len(ctx.E.element_names), ",".join(str(s) for s in ctx.E.block_sizes)
    return f"{atoms} atoms (blocks {sizes})", atoms == EXPANSION_SIZE, ""


def _step_block_recovery(ctx):
    E = ctx.E
    recovered = block_collapse(E)
    mismatch = _vector_match(recovered.rank, ctx.N.rank, recovered.ground)
    if mismatch:
        return mismatch, False, ""
    return "all 31 block unions match the tight polymatroid", True, ""


def _step_dual_expansion_mmrv(ctx):
    value = expanded_mmrv(ctx.E.dual())
    return str(value), value == -1, ""


def _step_scaled_entropy(ctx):
    doc = fixture_doc("coefficients.json")
    scaled = linear_combine([(doc["entropy_scale"], ctx.m_xi)])
    left = rank_vector_from_json(fixture_doc("table2_left.json"))
    gap = float(np.abs(scaled.values - left.values).max())
    gap51 = float(np.abs(51.0 * np.asarray(ctx.m_xi.values) - left.values).max())
    note = (
        f"left column matches scale {doc['entropy_scale']}; the source table's "
        f"caption scale 51 is off by up to {gap51:.2f}"
    )
    return f"max gap {gap:.2e}", gap <= LEFT_COLUMN_TOL, note


_STEPS = [
    ("entropy-vector-valid", "valid polymatroid", "", _step_entropy_valid),
    ("mmrv-of-entropy-vector", f"{MMRV_ENTROPY_EXPECTED}", f"{MMRV_ENTROPY_TOL:g}", _step_mmrv_entropy),
    ("mmrv-of-dual", f"{MMRV_DUAL_EXPECTED}", f"{MMRV_DUAL_TOL:g}", _step_mmrv_dual),
    ("combination-rounds-to-integer-fixture", "table2_middle.json", f"residual {ROUNDING_TOL:g}", _step_combination),
    ("tightening-matches-fixture", "table2_tight.json", "exact", _step_tighten),
    ("integer-dual-mmrv", "-1", "exact", _step_dual_mmrv),
    ("expansion-atom-count", str(EXPANSION_SIZE), "exact", _step_expansion_size),
    ("expansion-recovers-base-on-blocks", "table2_tight.json", "exact", _step_block_recovery),
    ("dualized-expansion-mmrv", "-1", "exact", _step_dual_expansion_mmrv),
    ("scaled-entropy-vs-left-column", "table2_left.json", f"{LEFT_COLUMN_TOL:g} per entry", _step_scaled_entropy),
]


def run_reproduction(step: int | None = None) -> ReproductionReport:
    """Run all ten steps (or just one, 1-based) and collect the records."""
    if step is not None and not 1 <= step <= len(_STEPS):
        raise ValueError(f"step must be in 1..{len(_STEPS)}, got {step}")
    ctx = _Artifacts()
    records = []
    for index, (name, expected, tolerance, fn) in enumerate(_STEPS, start=1):
        if step is not None and index != step:
            continue
        try:
            computed, passed, note = fn(ctx)
        except Exception as exc:
            computed, passed, note = "error", False, f"{type(exc).__name__}: {exc}"
        records.append(StepRecord(index, name, expected, computed, tolerance, passed, note))
    return ReproductionReport(tuple(records))
