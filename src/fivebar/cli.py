"""Command-line interface.

Subcommands:
  jointspace  build the joint-space quadtree (+ complement) for a mechanism
  workspace   build the workspace quadtree (+ complement)
  aspects     compute and pair all 8 mode-combo aspect sets
  bench       quadtree-vs-discretization cost table (CSV)
  render      render a saved quadtree file to SVG
  verify      sample Black boxes and check them against the point oracle

Exit codes: 0 success, 1 runtime error (I/O, malformed input, failed
pairing), 2 usage error.

argparse drops an option value of exactly "--", so the working mode "--"
cannot be passed as ``--working-mode=--``; every working mode may also be
spelled with p (plus) and m (minus), and "--" is written ``mm``.
"""

from __future__ import annotations

import argparse
import csv
import functools
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from . import aspects as asp
from . import bench as bench_mod
from . import mechanism as mech
from . import quadtree as qt
from .interval import Box2
from .render import RenderStyle, render_svg

MECHANISMS = {"m1": mech.M1, "m2": mech.M2}
# letter spellings of the working modes; "mm" is the only way to pass "--"
WORKING_MODE_LETTERS = {"pp": "++", "pm": "+-", "mp": "-+", "mm": "--"}
WORKING_MODE_CHOICES = ["++", "+-", "-+", "--", *WORKING_MODE_LETTERS]
# the bound of `verify --samples`: sampling holds a few float arrays of
# that many rows
MAX_SAMPLES = 10**7
WORKING_MODE_HELP = (
    "signs of u_z, v_z: ++, +-, -+, -- or pp, pm, mp, mm "
    "(argparse drops a '--' value: write mm)"
)


def _add_geometry_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--mechanism", choices=["m1", "m2", "custom"], default="m1",
        help="built-in mechanism or 'custom' with --lengths",
    )
    p.add_argument(
        "--lengths", metavar="L0,L1,L2,L3,L4",
        help="five comma-separated link lengths (required with --mechanism custom)",
    )


def _geometry(args, parser) -> tuple[mech.FiveBarGeometry, str]:
    if args.mechanism in MECHANISMS:
        if args.lengths:
            parser.error("--lengths only applies to --mechanism custom")
        return MECHANISMS[args.mechanism], args.mechanism
    if not args.lengths:
        parser.error("--mechanism custom requires --lengths L0,L1,L2,L3,L4")
    parts = args.lengths.split(",")
    if len(parts) != 5:
        parser.error("--lengths needs exactly 5 comma-separated values")
    try:
        lengths = [float(v) for v in parts]
    except ValueError:
        parser.error(f"bad --lengths value: {args.lengths!r}")
    try:
        return mech.FiveBarGeometry(*lengths), "custom"
    except ValueError as exc:
        parser.error(f"bad --lengths: {exc}")


def _depth(args, parser) -> int:
    if not 1 <= args.depth <= 14:
        parser.error("--depth must be in [1, 14]")
    return args.depth


def _parse_box(spec: str, parser) -> Box2:
    parts = spec.split(",")
    if len(parts) != 4:
        parser.error("--box needs xlo,xhi,ylo,yhi")
    try:
        box = Box2.from_bounds(*(float(v) for v in parts))
        qt.check_root_box(box)
    except ValueError as exc:
        parser.error(f"bad --box: {exc}")
    return box


def _box_text(box: Box2) -> str:
    return f"{box.x.lo!r},{box.x.hi!r},{box.y.lo!r},{box.y.hi!r}"


def _parse_modes(args, parser) -> tuple[Optional[mech.WorkingMode], Optional[mech.AssemblyMode]]:
    wm = am = None
    if args.working_mode is not None:
        try:
            wm = mech.WorkingMode.from_str(
                WORKING_MODE_LETTERS.get(args.working_mode, args.working_mode)
            )
        except ValueError as exc:
            parser.error(str(exc))
    if args.assembly_mode is not None:
        try:
            am = mech.AssemblyMode.from_str(args.assembly_mode)
        except ValueError as exc:
            parser.error(str(exc))
    return wm, am


def _space_classifier(space, g, wm, am, parser) -> mech.BoxClassifier:
    if space == bench_mod.JOINTSPACE:
        if wm is not None and am is None:
            parser.error("--working-mode in the joint space also needs --assembly-mode")
    elif am is not None and wm is None:
        parser.error("--assembly-mode in the workspace also needs --working-mode")
    return mech.BoxClassifier(space, g, wm, am)


def _write_text(path: Path, text: str) -> None:
    path.write_text(text)


def _cmd_space(args, parser, space: str) -> int:
    g, _ = _geometry(args, parser)
    depth = _depth(args, parser)
    wm, am = _parse_modes(args, parser)
    classify = _space_classifier(space, g, wm, am, parser)
    box = _parse_box(args.box, parser) if args.box else bench_mod.space_box(g, space)

    if args.refine_from:
        model = qt.deserialize(Path(args.refine_from).read_text())
        if depth <= model.max_depth:
            parser.error(
                f"--depth must exceed the input model depth {model.max_depth}"
            )
        if model.root_box != box:
            parser.error(
                f"--refine-from box {_box_text(model.root_box)} differs from "
                f"the {space} box {_box_text(box)}"
            )
        # a tree of another mechanism or mode setting would keep its leaves
        mismatched = qt.mismatched_leaves(model, classify)
        if mismatched:
            parser.error(
                f"--refine-from tree does not match this {space} classifier: "
                f"{mismatched} of {model.stats.nodes - model.stats.gray} leaves differ"
            )
        model = qt.refine(model, depth, classify)
    else:
        model = qt.build(box, depth, classify)

    out = Path(args.out)
    if args.format == "svg":
        _write_text(out, render_svg(model))
    else:
        text = qt.serialize(model)
        _write_text(out, text)
        # the text of `model.complement_model()`: B and W swapped in the node line
        header, body = text.split("\n", 1)
        body = body.translate(str.maketrans("BW", "WB"))
        _write_text(out.with_name(out.name + ".comp"), f"{header}\n{body}")
    print(f"nodes={model.stats.nodes} black={model.stats.black} calls={model.stats.calls}")
    return 0


def cmd_jointspace(args, parser) -> int:
    return _cmd_space(args, parser, bench_mod.JOINTSPACE)


def cmd_workspace(args, parser) -> int:
    return _cmd_space(args, parser, bench_mod.WORKSPACE)


def cmd_aspects(args, parser) -> int:
    g, _ = _geometry(args, parser)
    depth = _depth(args, parser)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    sets = []
    for combo in asp.all_mode_combos():
        aset = asp.compute_aspects(g, combo, depth)
        sets.append(aset)
        stem = f"aspect_{combo.label}"
        _write_text(out_dir / f"{stem}_workspace.qt", qt.serialize(aset.workspace))
        _write_text(out_dir / f"{stem}_jointspace.qt", qt.serialize(aset.jointspace))
        _write_text(
            out_dir / f"{stem}_workspace.svg",
            render_svg(aset.workspace, aset.workspace_labels),
        )
        _write_text(
            out_dir / f"{stem}_jointspace.svg",
            render_svg(aset.jointspace, aset.jointspace_labels),
        )
        print(
            f"combo {combo} (panel {combo.label}): "
            f"parallel={len(aset.workspace_aspects)} "
            f"serial={len(aset.jointspace_aspects)} "
            f"pairs={len(aset.pairing)}"
        )

    with (out_dir / "pairing.csv").open("w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(
            [
                "combo", "parallel_region", "serial_region",
                "witness_x", "witness_y", "witness_t1", "witness_t2", "area",
            ]
        )
        for aset in sets:
            for e in aset.pairing:
                writer.writerow(
                    [
                        str(aset.combo), e.parallel_aspect, e.serial_aspect,
                        repr(e.witness_workspace[0]), repr(e.witness_workspace[1]),
                        repr(e.witness_joint[0]), repr(e.witness_joint[1]),
                        repr(e.area),
                    ]
                )

    report = asp.aspect_report(sets)
    with (out_dir / "overlap.csv").open("w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(["am", "wm_a", "wm_b", "area"])
        for e in report.overlaps:
            writer.writerow([e.am, e.wm_a, e.wm_b, repr(e.area)])
    return 0


def cmd_bench(args, parser) -> int:
    g, name = _geometry(args, parser)
    try:
        depths = [int(v) for v in args.depths.split(",")]
    except ValueError:
        parser.error(f"bad --depths value: {args.depths!r}")
    if not depths or any(d < 1 or d > 14 for d in depths):
        parser.error("--depths must be integers in [1, 14]")
    spaces = bench_mod.SPACES if args.space == "both" else (args.space,)
    rows = []
    for space in spaces:
        rows.extend(bench_mod.run_bench(g, space, depths, name))
    text = bench_mod.emit_table(rows)
    if args.out:
        _write_text(Path(args.out), text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_render(args, parser) -> int:
    model = qt.deserialize(Path(args.input).read_text())
    labels = qt.label_regions(model) if args.label_regions else None
    style = RenderStyle(show_undetermined=args.show_undetermined)
    _write_text(Path(args.out), render_svg(model, labels, style))
    return 0


def cmd_verify(args, parser) -> int:
    g, _ = _geometry(args, parser)
    depth = _depth(args, parser)
    if args.samples < 0:
        parser.error("--samples must be >= 0")
    if args.samples > MAX_SAMPLES:
        parser.error(f"--samples must be at most {MAX_SAMPLES}")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    wm, am = _parse_modes(args, parser)
    space = args.space
    classify = _space_classifier(space, g, wm, am, parser)
    model = qt.build(bench_mod.space_box(g, space), depth, classify)

    combo = (wm, am) if wm is not None and am is not None else None
    classify_point = (
        mech.point_classify_joint
        if space == bench_mod.JOINTSPACE
        else mech.point_classify_workspace
    )
    rng = np.random.default_rng(args.seed)
    points = qt.sample_black_points(model, args.samples, rng)
    violations = sum(
        1 for x, y in points if classify_point(x, y, g, combo) != mech.VALID
    )
    print(f"violations={violations} samples={len(points)}")
    return 0 if violations == 0 else 1


@functools.cache  # one parser per process, built at the first call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fivebar",
        description="Certified singularity-free domains of a planar five-bar manipulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def space_cmd(name, func, helptext):
        p = sub.add_parser(name, help=helptext)
        _add_geometry_args(p)
        p.add_argument("--depth", type=int, required=True, help="quadtree depth (1-14)")
        p.add_argument("--working-mode", choices=WORKING_MODE_CHOICES, help=WORKING_MODE_HELP)
        p.add_argument("--assembly-mode", choices=["+", "-"])
        p.add_argument("--out", required=True, help="output file")
        p.add_argument("--format", choices=["qt", "svg"], default="qt")
        p.add_argument(
            "--box", metavar="XLO,XHI,YLO,YHI",
            help="override initial box; write --box=XLO,XHI,YLO,YHI, as a value "
            "that starts with '-' would be read as an option",
        )
        p.add_argument("--refine-from", metavar="FILE", help="refine an existing .qt file")
        p.set_defaults(func=func, parser=p)
        return p

    space_cmd("jointspace", cmd_jointspace, "build the joint-space quadtree")
    space_cmd("workspace", cmd_workspace, "build the workspace quadtree")

    p = sub.add_parser("aspects", help="compute all 8 aspect sets")
    _add_geometry_args(p)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_aspects, parser=p)

    p = sub.add_parser("bench", help="cost-comparison table")
    _add_geometry_args(p)
    p.add_argument("--space", choices=["jointspace", "workspace", "both"], default="both")
    p.add_argument("--depths", default="5,6,7,8,9,10", metavar="D1,D2,...")
    p.add_argument("--out", help="CSV output file (default: stdout)")
    p.set_defaults(func=cmd_bench, parser=p)

    p = sub.add_parser("render", help="render a quadtree file to SVG")
    p.add_argument("input", help="quadtree (.qt) file")
    p.add_argument("--out", required=True)
    p.add_argument("--show-undetermined", action="store_true")
    p.add_argument("--label-regions", action="store_true")
    p.set_defaults(func=cmd_render, parser=p)

    p = sub.add_parser("verify", help="sample Black boxes against the point oracle")
    _add_geometry_args(p)
    p.add_argument("--space", choices=["jointspace", "workspace"], required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--working-mode", choices=WORKING_MODE_CHOICES, help=WORKING_MODE_HELP)
    p.add_argument("--assembly-mode", choices=["+", "-"])
    p.add_argument("--samples", type=int, default=1000, help=f"0 to {MAX_SAMPLES}")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify, parser=p)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # each command reports usage errors through its own subparser
        return args.func(args, args.parser)
    # ParseError and DomainError are ValueErrors
    except (OSError, ValueError, asp.PairingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
