import re
import time

import pytest

from fivebar.aspects import all_mode_combos, jointspace_classifier, workspace_classifier
from fivebar.bench import JOINTSPACE, WORKSPACE, space_box, space_classifier
from fivebar.mechanism import M1, M2
from fivebar.quadtree import build, refine

CRITERIA = {
    1: "every Black box sampled at random points agrees with the scalar classifier",
    2: "elbow-coincidence configurations are never inside a Black joint-space box",
    3: "the workspace point hole is an Undetermined minimum-size leaf at every depth",
    4: "the quadtree/grid cost ratio K decreases with depth within the expected call budget",
    5: "aspect counts match across mechanisms, are depth-stable, and pair one-to-one",
    6: "labeling, refinement, serialization, and inverse-of-direct oracles agree",
    7: "interval operations are inclusion isotonic with zero violations",
}

_PATTERN = re.compile(r"test_acceptance\.py::test_criterion_(\d+)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    results: dict[int, bool] = {}
    for category in ("passed", "failed", "error", "skipped"):
        for rep in terminalreporter.stats.get(category, []):
            match = _PATTERN.search(getattr(rep, "nodeid", ""))
            if not match:
                continue
            num = int(match.group(1))
            results[num] = results.get(num, True) and category == "passed"
    if not results:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for num in sorted(results):
        status = "PASS" if results[num] else "FAIL"
        terminalreporter.write_line(
            f"criterion {num}: {status} - {CRITERIA.get(num, '')}"
        )


@pytest.fixture(scope="session")
def combo_trees_d8():
    """One tree per (mechanism, space, combo) at depth 8, plus build time."""
    t0 = time.monotonic()
    trees = {}
    for name, g in (("m1", M1), ("m2", M2)):
        for combo in all_mode_combos():
            trees[(name, JOINTSPACE, combo)] = build(
                space_box(g, JOINTSPACE), 8, jointspace_classifier(combo, g)
            )
            trees[(name, WORKSPACE, combo)] = build(
                space_box(g, WORKSPACE), 8, workspace_classifier(combo, g)
            )
    return trees, time.monotonic() - t0


@pytest.fixture(scope="session")
def modefree_chains():
    """Refined chains d=5..10 of the plain (mode-free) spaces."""
    chains = {}
    for name, g in (("m1", M1), ("m2", M2)):
        for space in (JOINTSPACE, WORKSPACE):
            classify = space_classifier(g, space)
            per_depth = {}
            model = build(space_box(g, space), 5, classify)
            per_depth[5] = model
            for d in range(6, 11):
                model = refine(model, d, classify)
                per_depth[d] = model
            chains[(name, space)] = per_depth
    return chains
