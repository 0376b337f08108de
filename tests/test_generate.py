import hashlib

import pytest

from frictiondual.generate import InstanceGenerator, emit_instance

# sha256 of the canonical JSON of draw_feasible(0..199), concatenated: the
# populations the acceptance batch (seed 2026) and the benchmark
# workloads (seed 11) are drawn from
POPULATIONS = {
    11: "a212b78746eec042f926dc34b55f964ca5cc92cc853a03cfcad15fabd3d2c259",
    2026: "43d81641df461a0cb3df06fd8200e37d92b8384ebd9b33023d8c64b2eb51c2ae",
}


@pytest.mark.parametrize("seed", sorted(POPULATIONS))
def test_generated_populations_are_pinned(seed):
    gen = InstanceGenerator(seed=seed)
    text = "".join(emit_instance(gen.draw_feasible(i)) for i in range(200))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == POPULATIONS[seed]


@pytest.mark.parametrize("fields, name", [
    ({"min_periods": 0}, "min_periods"),
    ({"min_periods": 3, "max_periods": 1}, "max_periods"),
    ({"min_branching": 0, "max_branching": 0}, "min_branching"),
    ({"max_branching": 1}, "max_branching"),
    ({"max_periods": 2.0}, "max_periods"),
    ({"min_branching": True}, "min_branching"),
    ({"max_branching": "3"}, "max_branching"),
])
def test_invalid_shape_fields_raise_naming_the_field(fields, name):
    with pytest.raises(ValueError, match=f"^{name} must be"):
        InstanceGenerator(**fields)


def test_single_period_and_branch_bounds_are_valid():
    # the least tree the fields allow: one period of one branch
    market = InstanceGenerator(seed=1, max_periods=1, min_branching=1,
                               max_branching=1).draw(0)
    assert market.tree.horizon == 1 and market.tree.n_leaves == 1


def test_draw_feasible_gives_up_naming_the_index(monkeypatch):
    from frictiondual import generate
    from frictiondual.polytope import NoCpsError

    tries = []
    monkeypatch.setattr(generate, "strictly_consistent", lambda market: tries.append(1))
    with pytest.raises(NoCpsError, match=r"after 64 tries at index 3$"):
        InstanceGenerator(seed=1).draw_feasible(3)
    assert len(tries) == generate.MAX_TRIES == 64
