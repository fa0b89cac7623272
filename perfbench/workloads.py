"""The benchmark's workloads: inputs made from a seed, one pass as a list of
timed operations, and the checks of every output.

Each operation is ``(name, run, check)``. ``run(mark)`` does the timed work;
it may call ``mark(segment)`` to split its time into finer segments.
``check()`` runs afterwards, untimed and untraced, and returns a list of
failure messages.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import types
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"
TREES = HERE / "trees"

BUILD_DEPTH = 10
REFINE_FROM = 8
# stored inputs of the topology workload: file -> (mechanism, space)
TOPOLOGY_TREES = {
    "m1_workspace_d12.qt": ("m1", "workspace"),
    "m2_jointspace_d12.qt": ("m2", "jointspace"),
}
N_QUERIES = 2000  # locate() queries per topology tree
N_SAMPLES = 2000  # sample_black_points() per topology tree
N_CHECK_SAMPLES = 200  # Black samples checked per built tree, first pass only


class InputError(RuntimeError):
    """The benchmark cannot run: missing sources or altered stored inputs."""


def load_fivebar(root: Path) -> types.SimpleNamespace:
    """Import fivebar from ``root/src`` and nowhere else."""
    src = root / "src"
    if not (src / "fivebar" / "__init__.py").is_file():
        raise InputError(f"no fivebar sources under {src}")
    sys.path.insert(0, str(src))
    import fivebar
    from fivebar import aspects, bench, cli, interval, mechanism, quadtree, render

    if src.resolve() not in Path(fivebar.__file__).resolve().parents:
        raise InputError(f"imported fivebar from {fivebar.__file__}, not from {src}")
    return types.SimpleNamespace(
        package=fivebar, interval=interval, mechanism=mechanism, quadtree=quadtree,
        aspects=aspects, render=render, bench=bench, cli=cli,
    )


def sha256(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def references() -> dict:
    return json.loads(REFERENCES.read_text())


def count_leaves(text: str) -> int:
    body = text.split("\n")[1]
    return body.count("B") + body.count("W") + body.count("U")


def geometries(fb, seed: int) -> dict:
    """name -> (geometry, CLI arguments). Seed 0 is the exact M1/M2."""
    base = {"m1": fb.mechanism.M1, "m2": fb.mechanism.M2}
    if seed == 0:
        return {name: (g, ["--mechanism", name]) for name, g in base.items()}
    rng = np.random.default_rng([seed, 0])
    out = {}
    for name, g in base.items():
        lengths = [float(v * f) for v, f in zip(g.lengths, rng.uniform(0.99, 1.01, 5))]
        args = ["--mechanism", "custom", "--lengths", ",".join(map(repr, lengths))]
        out[name] = (fb.mechanism.FiveBarGeometry(*lengths), args)
    return out


def run_cli(fb, argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = fb.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"fivebar {' '.join(argv)} exited with {code}")


class Workload:
    name = ""

    def __init__(self, fb, seed: int):
        self.fb = fb
        self.seed = seed
        self.work = Path()  # output directory, set by the runner
        self.first: dict[str, dict[str, str]] = {}  # op -> digests of its first run
        self.leaves: dict[str, int] = {}  # output -> leaves

    def leaves_per_pass(self) -> int:
        return sum(self.leaves.values())

    def _consistent(self, op: str, digests: dict[str, str]) -> tuple[list[str], bool]:
        """Compare with the op's first outputs; returns (failures, is_first)."""
        if op in self.first:
            return [
                f"{op}: {k} differs from the first pass"
                for k, v in digests.items() if self.first[op].get(k) != v
            ], False
        self.first[op] = digests
        fails = []
        if self.seed == 0:
            ref = references()["seed0"].get(self.name, {})
            fails = [
                f"{op}: {k} does not match the seed-0 reference"
                for k, v in digests.items() if k in ref and ref[k] != v
            ]
        return fails, True

    def _check_tree_file(self, path: Path, space: str, g) -> list[str]:
        """Round trip and Black samples of one written tree."""
        qt, mech = self.fb.quadtree, self.fb.mechanism
        text = path.read_text()
        self.leaves[path.name] = count_leaves(text)
        model = qt.deserialize(text)
        fails = []
        if qt.serialize(model) != text:
            fails.append(f"{path.name}: serialize(deserialize(.)) is not the identity")
        classify = (
            mech.point_classify_joint if space == "jointspace"
            else mech.point_classify_workspace
        )
        rng = np.random.default_rng([self.seed, 1, len(self.leaves)])
        for x, y in qt.sample_black_points(model, N_CHECK_SAMPLES, rng):
            if classify(x, y, g) != mech.VALID:
                fails.append(f"{path.name}: Black sample ({x!r}, {y!r}) is not VALID")
                break
        return fails

    def ops(self) -> list[tuple]:
        raise NotImplementedError


class Build(Workload):
    """Mode-free certified trees at depth 10 through the CLI, plus a refine."""

    name = "build"

    def __init__(self, fb, seed):
        super().__init__(fb, seed)
        self.geo = geometries(fb, seed)

    def _space(self, mech: str, space: str, depth: int, out: str, *extra) -> None:
        run_cli(self.fb, [
            space, *self.geo[mech][1], "--depth", str(depth),
            "--out", str(self.work / out), *extra,
        ])

    def _digests(self, *names: str) -> dict[str, str]:
        return {
            f: sha256((self.work / f).read_bytes())
            for n in names for f in (n, n + ".comp")
        }

    def ops(self):
        out = []
        for m in ("m1", "m2"):
            for s in ("jointspace", "workspace"):
                out.append((f"{m}.{s}", self._tree_op(m, s), self._tree_check(m, s)))
        out.append(("m1.workspace.refine", self._refine_op, self._refine_check))
        return out

    def _tree_op(self, m, s):
        return lambda mark: self._space(m, s, BUILD_DEPTH, f"{m}_{s}.qt")

    def _tree_check(self, m, s):
        def check():
            name = f"{m}_{s}.qt"
            fails, first = self._consistent(f"{m}.{s}", self._digests(name))
            if first:
                fails += self._check_tree_file(self.work / name, s, self.geo[m][0])
            return fails
        return check

    def _refine_op(self, mark):
        self._space("m1", "workspace", REFINE_FROM, "m1_workspace_d8.qt")
        self._space(
            "m1", "workspace", BUILD_DEPTH, "m1_workspace_refined.qt",
            "--refine-from", str(self.work / "m1_workspace_d8.qt"),
        )

    def _refine_check(self):
        digests = self._digests("m1_workspace_d8.qt", "m1_workspace_refined.qt")
        fails, first = self._consistent("m1.workspace.refine", digests)
        fresh = self._digests("m1_workspace.qt")
        for suffix in ("", ".comp"):
            if digests["m1_workspace_refined.qt" + suffix] != fresh["m1_workspace.qt" + suffix]:
                fails.append(f"refined tree{suffix} differs from the fresh depth-10 build")
        if first:
            g = self.geo["m1"][0]
            for name in ("m1_workspace_d8.qt", "m1_workspace_refined.qt"):
                fails += self._check_tree_file(self.work / name, "workspace", g)
        return fails


class Topology(Workload):
    """Read-only layers on stored mode-free depth-12 trees."""

    name = "topology"

    def __init__(self, fb, seed):
        super().__init__(fb, seed)
        want = references()["topology_inputs"]
        self.text = {}
        for f in TOPOLOGY_TREES:
            data = (TREES / f).read_bytes()
            if sha256(data) != want[f]:
                raise InputError(
                    f"{TREES / f} does not match its recorded digest; "
                    "regenerate it with perfbench/make_inputs.py"
                )
            self.text[f] = data.decode()
        rng = np.random.default_rng([seed, 2])
        self.queries = {}
        for f, text in self.text.items():
            _, _, xlo, xhi, ylo, yhi = text.split("\n", 1)[0].split(" ")
            u = rng.random((N_QUERIES, 2))
            self.queries[f] = [
                (float(xlo) + a * (float(xhi) - float(xlo)),
                 float(ylo) + b * (float(yhi) - float(ylo)))
                for a, b in u
            ]
        self.state: dict[tuple[str, str], object] = {}

    def ops(self):
        out = []
        for k, (f, (m, space)) in enumerate(TOPOLOGY_TREES.items()):
            stem = f.split("_d")[0]
            for step in ("deserialize", "label", "aspects", "render",
                         "serialize", "locate", "sample"):
                out.append((
                    f"{stem}.{step}",
                    self._runner(step, f, space, k),
                    self._checker(step, f, m, space),
                ))
        return out

    def _runner(self, step, f, space, k):
        qt, asp, st = self.fb.quadtree, self.fb.aspects, self.state

        def run(mark):
            if step == "deserialize":
                st[f, step] = qt.deserialize(self.text[f])
                return
            model = st[f, "deserialize"]
            if step == "label":
                st[f, step] = qt.label_regions(model)
            elif step == "aspects":
                st[f, step] = asp.aspect_regions(
                    model, st[f, "label"], wrap=space == "jointspace"
                )
            elif step == "render":
                st[f, step] = self.fb.render.render_svg(model, st[f, "label"])
            elif step == "serialize":
                st[f, step] = qt.serialize(model)
            elif step == "locate":
                st[f, step] = [qt.locate(model, x, y) for x, y in self.queries[f]]
            elif step == "sample":
                rng = np.random.default_rng([self.seed, 3, k])
                st[f, step] = qt.sample_black_points(model, N_SAMPLES, rng)

        return run

    def _checker(self, step, f, m, space):
        mech = self.fb.mechanism

        def check():
            value = self.state[f, step]
            fails = []
            if step == "deserialize":
                s = value.stats
                digest = sha256(repr((s.black, s.white, s.undetermined, s.gray)))
            elif step == "label":
                digest = sha256(repr((value.region_count, list(value.leaf_to_region.items()))))
            elif step == "aspects":
                digest = sha256(repr([(a.aspect_id, a.region_ids, a.area) for a in value]))
            elif step == "render":
                digest = sha256(value)
            elif step == "serialize":
                digest = sha256(value)
                self.leaves[f] = count_leaves(value)
                if value != self.text[f]:
                    fails.append(f"{f}: serialize(deserialize(.)) is not the identity")
            elif step == "locate":
                digest = sha256(repr(value))
            else:
                digest = sha256(value.tobytes())
                g = mech.M1 if m == "m1" else mech.M2
                classify = (
                    mech.point_classify_joint if space == "jointspace"
                    else mech.point_classify_workspace
                )
                bad = sum(1 for x, y in value if classify(x, y, g) != mech.VALID)
                if len(value) != N_SAMPLES or bad:
                    fails.append(f"{f}: {bad} of {len(value)} Black samples are not VALID")
                # last step of this tree: drop its objects, so that every pass
                # starts from the same heap (the garbage collector's work
                # grows with the objects alive)
                for key in [k for k in self.state if k[0] == f]:
                    del self.state[key]
            more, _ = self._consistent(f"{f}.{step}", {step: digest})
            return fails + more

        return check


WORKLOADS = {w.name: w for w in (Build, Topology)}
