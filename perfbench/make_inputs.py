"""Regenerate the benchmark's stored inputs and reference digests.

    python3 perfbench/make_inputs.py trees     # topology input trees
    python3 perfbench/make_inputs.py outputs   # seed-0 output digests

``trees`` builds the mode-free depth-12 trees of the topology workload
(m1 workspace, m2 jointspace; about 30 s together) with the library in
``src/`` at the exact M1/M2 lengths, writes them to ``perfbench/trees/``
and records their sha256 in ``perfbench/references.json``.

``outputs`` runs one seed-0 pass of the ``build`` workload and records the
sha256 of every tree it writes. Run it only on a
commit whose outputs are known to be right: the benchmark fails any later
seed-0 run whose outputs differ.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

from workloads import (
    HERE, REFERENCES, TREES, TOPOLOGY_TREES, WORKLOADS, load_fivebar, sha256,
)

TREE_DEPTH = 12


def make_trees(fb) -> dict:
    TREES.mkdir(exist_ok=True)
    digests = {}
    for f, (m, space) in TOPOLOGY_TREES.items():
        g = fb.mechanism.M1 if m == "m1" else fb.mechanism.M2
        model = fb.quadtree.build(
            fb.bench.space_box(g, space), TREE_DEPTH, fb.bench.space_classifier(g, space)
        )
        text = fb.quadtree.serialize(model)
        (TREES / f).write_text(text)
        digests[f] = sha256(text)
        print(f"{f}: {model.stats.calls} calls, sha256 {digests[f]}")
    return digests


def make_outputs(fb) -> dict:
    out = {}
    for name in ("build",):
        w = WORKLOADS[name](fb, 0)
        work = HERE / "out" / f"references-{name}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        w.work = work
        for _, run, _ in w.ops():
            run(lambda segment: None)
        files = sorted(
            p for p in work.rglob("*")
            if p.suffix == ".qt" or p.name.endswith(".qt.comp")
        )
        out[name] = {p.name: sha256(p.read_bytes()) for p in files}
        shutil.rmtree(work)
        print(f"{name}: {len(files)} outputs")
    return out


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("what", choices=["trees", "outputs"])
    args = p.parse_args()
    fb = load_fivebar(HERE.parent)
    refs = json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}
    if args.what == "trees":
        refs["topology_inputs"] = make_trees(fb)
    else:
        refs["seed0"] = make_outputs(fb)
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
