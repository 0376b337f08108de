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
