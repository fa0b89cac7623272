"""Command-line interface: files written, exit codes, determinism."""

import hashlib
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from fivebar import aspects as asp
from fivebar import interval as iv
from fivebar import quadtree as qt
from fivebar.bench import WORKSPACE, space_box, space_classifier
from fivebar.cli import main
from fivebar.interval import DomainError
from fivebar.mechanism import M2, AssemblyMode, BoxClassifier, WorkingMode

from helpers import parse_table, reference_widen


def run(argv):
    return main(argv)


def _module_env() -> dict:
    # the environment of a `python -m fivebar` child that imports this
    # checkout's package
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(Path(qt.__file__).parents[1]), os.environ.get("PYTHONPATH")) if p
    )}


# ---------------------------------------------------------------------------
# jointspace / workspace
# ---------------------------------------------------------------------------


def test_jointspace_writes_tree_and_complement(tmp_path, capsys):
    out = tmp_path / "m2.qt"
    assert run(["jointspace", "--mechanism", "m2", "--depth", "4", "--out", str(out)]) == 0
    assert out.exists()
    comp_path = tmp_path / "m2.qt.comp"
    assert comp_path.exists()
    model = qt.deserialize(out.read_text())
    comp = qt.deserialize(comp_path.read_text())
    assert model.max_depth == comp.max_depth == 4
    # the complement is the same tree with Black and White swapped
    body = out.read_text().splitlines()[1]
    assert comp_path.read_text().splitlines()[1] == body.translate(str.maketrans("BW", "WB"))
    line = capsys.readouterr().out.strip()
    match = re.fullmatch(r"nodes=(\d+) black=(\d+) calls=(\d+)", line)
    assert match
    assert int(match.group(1)) == model.stats.nodes
    assert int(match.group(3)) >= int(match.group(1))


@pytest.mark.parametrize("space", ["jointspace", "workspace"])
@pytest.mark.parametrize("name", ["m1", "m2"])
def test_complement_file_is_the_serialized_complement(tmp_path, name, space):
    # the .comp text is the .qt text with B and W swapped in the node line
    out = tmp_path / f"{name}.qt"
    assert run([space, "--mechanism", name, "--depth", "7", "--out", str(out)]) == 0
    model = qt.deserialize(out.read_text())
    comp = Path(f"{out}.comp").read_text()
    assert comp == qt.serialize(model.complement_model())
    assert comp != out.read_text()


def test_custom_lengths_equal_builtin(tmp_path):
    a = tmp_path / "a.qt"
    b = tmp_path / "b.qt"
    assert run(["jointspace", "--mechanism", "m1", "--depth", "4", "--out", str(a)]) == 0
    assert run(
        [
            "jointspace",
            "--mechanism", "custom",
            "--lengths", "9,8,5,5,8",
            "--depth", "4",
            "--out", str(b),
        ]
    ) == 0
    assert a.read_bytes() == b.read_bytes()


def test_workspace_with_mode_combo(tmp_path):
    out = tmp_path / "w.qt"
    assert run(
        [
            "workspace",
            "--mechanism", "m2",
            "--depth", "4",
            "--working-mode", "+-",
            "--assembly-mode", "-",
            "--out", str(out),
        ]
    ) == 0
    assert out.exists()


def test_workspace_svg_format(tmp_path):
    out = tmp_path / "w.svg"
    assert run(
        ["workspace", "--mechanism", "m2", "--depth", "4", "--format", "svg", "--out", str(out)]
    ) == 0
    assert out.read_text().startswith("<?xml")


def test_box_override(tmp_path):
    out = tmp_path / "b.qt"
    assert run(
        [
            "jointspace",
            "--mechanism", "m2",
            "--depth", "3",
            "--box", "0,1,0,1",
            "--out", str(out),
        ]
    ) == 0
    model = qt.deserialize(out.read_text())
    assert (model.root_box.x.lo, model.root_box.x.hi) == (0.0, 1.0)


def test_refine_from_equals_fresh(tmp_path):
    shallow = tmp_path / "d4.qt"
    refined = tmp_path / "d6.qt"
    fresh = tmp_path / "fresh6.qt"
    run(["jointspace", "--mechanism", "m2", "--depth", "4", "--out", str(shallow)])
    assert run(
        [
            "jointspace",
            "--mechanism", "m2",
            "--depth", "6",
            "--refine-from", str(shallow),
            "--out", str(refined),
        ]
    ) == 0
    run(["jointspace", "--mechanism", "m2", "--depth", "6", "--out", str(fresh)])
    assert refined.read_bytes() == fresh.read_bytes()


def test_benchmark_build_commands_write_the_reference_trees(tmp_path):
    # the six commands of the benchmark's `build` workload at seed 0 (the
    # four mode-free depth-10 trees, the m1 workspace tree at depth 8 and
    # its refinement to depth 10): every file and its .comp hashes to the
    # digest that perfbench/references.json records for it
    refs = Path(__file__).resolve().parents[1] / "perfbench" / "references.json"
    want = json.loads(refs.read_text())["seed0"]["build"]

    def space(name: str, s: str, depth: int, out: str, *extra: str) -> None:
        argv = [s, "--mechanism", name, "--depth", str(depth), "--out", str(tmp_path / out)]
        assert run(argv + list(extra)) == 0

    for name in ("m1", "m2"):
        for s in ("jointspace", "workspace"):
            space(name, s, 10, f"{name}_{s}.qt")
    space("m1", "workspace", 8, "m1_workspace_d8.qt")
    space("m1", "workspace", 10, "m1_workspace_refined.qt",
          "--refine-from", str(tmp_path / "m1_workspace_d8.qt"))
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert len(want) == 12
    assert got == want


# ---------------------------------------------------------------------------
# usage and I/O errors
# ---------------------------------------------------------------------------


def test_depth_zero_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(["jointspace", "--mechanism", "m1", "--depth", "0", "--out", str(tmp_path / "x.qt")])
    assert exc.value.code == 2


def test_bad_lengths_usage_errors(tmp_path):
    out = str(tmp_path / "x.qt")
    for lengths in ("1,2,3", "1,2,3,4,oops", "0,1,1,1,1"):
        with pytest.raises(SystemExit) as exc:
            run(["jointspace", "--mechanism", "custom", "--lengths", lengths, "--depth", "3", "--out", out])
        assert exc.value.code == 2


@pytest.mark.parametrize(
    "space, lengths",
    [
        ("jointspace", "nan,1,1,1,1"),
        ("jointspace", "inf,1,1,1,1"),
        ("workspace", "1,1e308,1,1e308,1"),
        ("jointspace", "2e-154,2e-154,2e-154,2e-154,2e-154"),
    ],
)
def test_non_finite_or_out_of_range_lengths_usage_errors(tmp_path, capsys, space, lengths):
    out = tmp_path / "x.qt"
    with pytest.raises(SystemExit) as exc:
        run([space, "--mechanism", "custom", "--lengths", lengths, "--depth", "3", "--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()
    last = capsys.readouterr().err.strip().splitlines()[-1]
    assert last.startswith(f"fivebar {space}: error: bad --lengths: ")


def test_lengths_with_builtin_mechanism_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(
            [
                "jointspace",
                "--mechanism", "m1",
                "--lengths", "9,8,5,5,8",
                "--depth", "3",
                "--out", str(tmp_path / "x.qt"),
            ]
        )
    assert exc.value.code == 2


def test_refine_from_depth_not_deeper_is_usage_error(tmp_path):
    shallow = tmp_path / "d4.qt"
    run(["jointspace", "--mechanism", "m2", "--depth", "4", "--out", str(shallow)])
    with pytest.raises(SystemExit) as exc:
        run(
            [
                "jointspace",
                "--mechanism", "m2",
                "--depth", "4",
                "--refine-from", str(shallow),
                "--out", str(tmp_path / "again.qt"),
            ]
        )
    assert exc.value.code == 2


def _usage_error(capsys) -> str:
    """The one `error:` line of a usage error, which argparse prints last."""
    err = capsys.readouterr().err.strip().splitlines()
    assert [line for line in err if "error:" in line] == err[-1:]
    return err[-1]


def test_subcommand_usage_error_prints_its_own_usage(tmp_path, capsys):
    # a working mode without an assembly mode in the joint space
    with pytest.raises(SystemExit) as exc:
        run(["jointspace", "--mechanism", "m1", "--depth", "3", "--working-mode", "++",
             "--out", str(tmp_path / "x.qt")])
    assert exc.value.code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err[0].startswith("usage: fivebar jointspace ")
    assert err[-1] == (
        "fivebar jointspace: error: --working-mode in the joint space also needs --assembly-mode"
    )
    assert not (tmp_path / "x.qt").exists()


def test_usage_error_after_a_run_prints_its_own_usage(tmp_path, capsys):
    # the parser is built once per process: a command that ran before does
    # not change which usage a later usage error prints
    out = str(tmp_path / "w.qt")
    assert run(["workspace", "--mechanism", "m1", "--depth", "2", "--out", out]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run(["verify", "--space", "jointspace", "--depth", "2", "--samples", "-1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err[0].startswith("usage: fivebar verify ")
    assert err[-1] == "fivebar verify: error: --samples must be >= 0"


def test_refine_from_other_space_is_usage_error(tmp_path, capsys):
    w3 = tmp_path / "w3.qt"
    j4 = tmp_path / "j4.qt"
    assert run(["workspace", "--mechanism", "m2", "--depth", "3", "--out", str(w3)]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run(
            [
                "jointspace", "--mechanism", "m2", "--depth", "4",
                "--refine-from", str(w3), "--out", str(j4),
            ]
        )
    assert exc.value.code == 2
    assert not j4.exists()
    assert _usage_error(capsys).startswith(
        "fivebar jointspace: error: --refine-from box -4.6,4.6,-4.6,4.6 differs from the jointspace box "
    )


def test_refine_from_other_mode_setting_is_usage_error(tmp_path, capsys):
    # a mode-free tree refined by a combo classifier kept its mode-free
    # Black leaves: a Black area of 13.92 against 2.94 for a fresh build
    a = tmp_path / "a.qt"
    b = tmp_path / "b.qt"
    assert run(["jointspace", "--mechanism", "m1", "--depth", "5", "--out", str(a)]) == 0
    capsys.readouterr()
    for argv in (
        ["--working-mode", "++", "--assembly-mode", "+"],
        ["--mechanism", "m2"],
    ):
        with pytest.raises(SystemExit) as exc:
            run(["jointspace", "--mechanism", "m1", "--depth", "6", "--refine-from", str(a),
                 "--out", str(b), *argv])
        assert exc.value.code == 2
        assert not b.exists()
        assert re.fullmatch(
            r"fivebar jointspace: error: --refine-from tree does not match this jointspace "
            r"classifier: \d+ of \d+ leaves differ",
            _usage_error(capsys),
        )


def test_refine_from_split_leaf_is_usage_error(tmp_path, capsys):
    # a Black leaf above maximal depth split into four Black children: each
    # child is Black to the classifier too, but the tree is not the one it
    # builds, whose leaf is the merged one
    built, split, out = (tmp_path / n for n in ("d5.qt", "split.qt", "d6.qt"))
    assert run(["workspace", "--mechanism", "m1", "--depth", "5", "--out", str(built)]) == 0
    capsys.readouterr()
    text = built.read_text()
    t = qt.deserialize(text).table
    row = int(np.flatnonzero((t.kind == qt.CODE_BLACK) & (t.level < t.depth))[0])
    header, body = text.splitlines()
    at = [i for i, c in enumerate(body) if c != qt.GRAY][row]
    split.write_text(f"{header}\n{body[:at]}GBBBB{body[at + 1:]}\n")
    with pytest.raises(SystemExit) as exc:
        run(["workspace", "--mechanism", "m1", "--depth", "6", "--refine-from", str(split),
             "--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()
    assert _usage_error(capsys) == (
        "fivebar workspace: error: --refine-from tree does not match this workspace "
        f"classifier: 4 of {len(t.keys) + 3} leaves differ"
    )


def test_refine_from_same_mode_setting_equals_fresh(tmp_path):
    modes = ["--working-mode=-+", "--assembly-mode=-"]
    shallow, refined, fresh = (tmp_path / n for n in ("d4.qt", "d6.qt", "f6.qt"))
    run(["workspace", "--mechanism", "m1", "--depth", "4", *modes, "--out", str(shallow)])
    assert run(
        ["workspace", "--mechanism", "m1", "--depth", "6", *modes,
         "--refine-from", str(shallow), "--out", str(refined)]
    ) == 0
    run(["workspace", "--mechanism", "m1", "--depth", "6", *modes, "--out", str(fresh)])
    assert refined.read_bytes() == fresh.read_bytes()


def test_python_dash_m_runs_the_cli(tmp_path):
    env = _module_env()
    done = subprocess.run(
        [sys.executable, "-m", "fivebar", "--help"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0
    assert done.stdout.startswith("usage: fivebar ")
    out = tmp_path / "w.qt"
    done = subprocess.run(
        [sys.executable, "-m", "fivebar", "workspace", "--mechanism", "m2",
         "--depth", "3", "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    expected = qt.build(space_box(M2, WORKSPACE), 3, space_classifier(M2, WORKSPACE))
    assert out.read_text() == qt.serialize(expected)
    done = subprocess.run(
        [sys.executable, "-m", "fivebar", "workspace", "--depth", "0", "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 2


def test_refine_from_other_box_is_usage_error(tmp_path, capsys):
    shallow = tmp_path / "d3.qt"
    run(["workspace", "--mechanism", "m2", "--depth", "3", "--box", "0,1,0,1", "--out", str(shallow)])
    capsys.readouterr()
    # the same --box refines; a different one, or none, is refused
    assert run(
        [
            "workspace", "--mechanism", "m2", "--depth", "4", "--box", "0,1,0,1",
            "--refine-from", str(shallow), "--out", str(tmp_path / "d4.qt"),
        ]
    ) == 0
    capsys.readouterr()
    for box in (["--box", "0,2,0,1"], []):
        with pytest.raises(SystemExit) as exc:
            run(
                [
                    "workspace", "--mechanism", "m2", "--depth", "4", *box,
                    "--refine-from", str(shallow), "--out", str(tmp_path / "x.qt"),
                ]
            )
        assert exc.value.code == 2
        assert "differs from the workspace box" in _usage_error(capsys)


def test_unwritable_output_is_io_error(tmp_path, capsys):
    missing_dir = tmp_path / "no" / "such" / "dir" / "x.qt"
    code = run(["jointspace", "--mechanism", "m2", "--depth", "3", "--out", str(missing_dir)])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_render_missing_input_is_io_error(tmp_path, capsys):
    code = run(["render", str(tmp_path / "nope.qt"), "--out", str(tmp_path / "o.svg")])
    assert code == 1


def test_render_malformed_input_is_io_error(tmp_path, capsys):
    bad = tmp_path / "bad.qt"
    bad.write_text("not a tree\n")
    code = run(["render", str(bad), "--out", str(tmp_path / "o.svg")])
    assert code == 1


def test_render_depth_above_bound_is_one_line_error(tmp_path, capsys):
    deep = tmp_path / "deep.qt"
    deep.write_text(f"QT1 {qt.MAX_DEPTH + 9} 0.0 1.0 0.0 1.0\nGBBBB\n")
    code = run(["render", str(deep), "--out", str(tmp_path / "o.svg"), "--label-regions"])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: d_max must be in [1, ")
    assert not (tmp_path / "o.svg").exists()


def test_render_zero_width_root_box_is_one_line_error(tmp_path, capsys):
    flat = tmp_path / "flat.qt"
    flat.write_text("QT1 3 0.0 0.0 0.0 1.0\nGBBWB\n")
    code = run(["render", str(flat), "--out", str(tmp_path / "o.svg")])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: root box side [0.0, 0.0] must have a positive finite width")
    assert not (tmp_path / "o.svg").exists()


def test_render_text_after_node_line_is_one_line_error(tmp_path, capsys):
    tail = tmp_path / "tail.qt"
    tail.write_text("QT1 1 0.0 1.0 0.0 1.0\nB\ngarbage\n")
    code = run(["render", str(tail), "--out", str(tmp_path / "o.svg")])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: trailing text after the node line")
    assert not (tmp_path / "o.svg").exists()


def test_negative_samples_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["verify", "--space", "jointspace", "--depth", "5", "--samples", "-1"])
    assert exc.value.code == 2
    last = capsys.readouterr().err.strip().splitlines()[-1]
    assert last == "fivebar verify: error: --samples must be >= 0"


def test_too_many_samples_is_usage_error_before_any_build(capsys, monkeypatch):
    # 10**11 samples once ended in numpy's allocation error; the bound is
    # checked before the tree is built or a sample array allocated
    def fail(*args, **kwargs):
        raise AssertionError("called past the --samples check")

    monkeypatch.setattr(qt, "build", fail)
    monkeypatch.setattr(qt, "sample_black_points", fail)
    with pytest.raises(SystemExit) as exc:
        run(["verify", "--space", "workspace", "--depth", "7", "--samples", "100000000000"])
    assert exc.value.code == 2
    assert _usage_error(capsys) == "fivebar verify: error: --samples must be at most 10000000"


def test_negative_box_bound_attached_with_equals_sign(tmp_path, capsys):
    # "--box -13.0,..." is read as an option; the help says to write "--box="
    default, boxed = tmp_path / "default.qt", tmp_path / "boxed.qt"
    argv = ["workspace", "--mechanism", "m1", "--depth", "6", "--out"]
    assert run([*argv, str(default)]) == 0
    assert run([*argv, str(boxed), "--box=-13.0,13.0,-13.0,13.0"]) == 0
    for suffix in ("", ".comp"):
        assert Path(f"{boxed}{suffix}").read_bytes() == Path(f"{default}{suffix}").read_bytes()
    with pytest.raises(SystemExit) as exc:
        run([*argv, str(tmp_path / "x.qt"), "--box", "-13.0,13.0,-13.0,13.0"])
    assert exc.value.code == 2
    assert "--box: expected one argument" in _usage_error(capsys)
    with pytest.raises(SystemExit) as exc:
        run(["workspace", "--help"])
    assert exc.value.code == 0
    assert "write --box=XLO,XHI,YLO,YHI" in " ".join(capsys.readouterr().out.split())


def test_negative_seed_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["verify", "--space", "jointspace", "--depth", "3", "--seed", "-1"])
    assert exc.value.code == 2
    assert _usage_error(capsys) == "fivebar verify: error: --seed must be >= 0"


@pytest.mark.parametrize("box", ["0,0,0,1", "0,1,2,2", "-1e308,1e308,0,1"])
def test_degenerate_box_is_usage_error(tmp_path, capsys, box):
    out = tmp_path / "w.qt"
    with pytest.raises(SystemExit) as exc:
        run(["workspace", "--depth", "3", f"--box={box}", "--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()
    last = capsys.readouterr().err.strip().splitlines()[-1]
    assert last.startswith("fivebar workspace: error: bad --box: ")


def _odd_rows(x) -> int:
    """Rows where two ulps are not a step of 2 on the int64 view: zeros,
    the smallest subnormals, the largest floats, infinities and NaN."""
    bits = np.abs(x).view(np.int64)
    max_bits = np.array(np.finfo(np.float64).max).view(np.int64)
    return int(np.count_nonzero((bits < 2) | (bits > max_bits - 2)))


@pytest.mark.parametrize(
    "box", ["-8e307,8e307,-8e307,8e307", "-1e-320,1e-320,-1e-320,1e-320", "0,8e307,0,1"]
)
def test_extreme_boxes_build_as_with_nextafter_widening(tmp_path, monkeypatch, box):
    # boxes whose bounds meet the outward rounding where its integer step
    # does not apply; the trees must equal those of two np.nextafter per
    # bound, the lower bounds of every interval array down and the upper
    # ones up, with no RuntimeWarning
    odd = []

    def spy(step):
        def widen(a):
            odd.append(_odd_rows(a))
            return step(a)

        return widen

    def build_tree(space, name):
        out = tmp_path / f"{space}-{name}"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            argv = [space, "--mechanism", "m1", "--depth", "5", f"--box={box}"]
            assert run(argv + ["--out", str(out)]) == 0
        return out.read_bytes(), out.with_name(out.name + ".comp").read_bytes()

    for space in ("workspace", "jointspace"):
        with monkeypatch.context() as m:
            m.setattr(iv, "_widen", spy(iv._widen))
            fast = build_tree(space, "fast.qt")
        with monkeypatch.context() as m:
            m.setattr(iv, "_widen", reference_widen)
            reference = build_tree(space, "reference.qt")
        assert fast == reference, space
    assert sum(odd) > 0


@pytest.mark.parametrize(
    "argv",
    [
        # equal links, so r1_in = 0: the annulus test passes a subnormal
        # |A1P|, and 2 L1 |A1P| rounds down to 0 in the law of cosines
        ["--mechanism", "custom", "--lengths", "0.1,0.1,0.1,0.1,0.1",
         "--box=1e-323,2e-323,1e-323,2e-323", "--depth", "6"],
        # a full combo also divides det A by |A1P| |A2P|
        ["--mechanism", "custom", "--lengths", "0.001,1,0.001,1,0.001",
         "--box=1e-322,2e-322,1e-322,2e-322", "--depth", "4",
         "--working-mode", "++", "--assembly-mode", "+"],
        # where that quotient exceeds the largest float
        ["--mechanism", "m2", "--box=1.5e-323,3e-323,1.5e-323,3e-323", "--depth", "4",
         "--working-mode", "+-", "--assembly-mode", "+"],
    ],
)
def test_workspace_boxes_a_subnormal_distance_from_a1_build(tmp_path, argv):
    out = tmp_path / "w.qt"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run(["workspace", *argv, "--out", str(out)]) == 0
    if "--working-mode" not in argv:
        # every point of the box is strictly reachable by both legs
        assert qt.CODE_WHITE not in qt.deserialize(out.read_text()).table.kind


def test_workspace_box_whose_norms_overflow_builds_silently(tmp_path):
    # |A1P| of the far corner overflows to inf, which is still an upper
    # bound: the build warns about nothing and decides the box as before
    out = tmp_path / "w.qt"
    done = subprocess.run(
        [sys.executable, "-m", "fivebar", "workspace", "--mechanism", "m1", "--depth", "3",
         "--box=0,1.7e308,0,1.7e308", "--out", str(out)],
        capture_output=True, text=True, env=_module_env(), timeout=60,
    )
    assert done.returncode == 0
    assert done.stderr == ""
    assert done.stdout == "nodes=13 black=0 calls=13\n"
    assert out.read_bytes() == b"QT1 3 0.0 1.7e+308 0.0 1.7e+308\nGGGUWWWWWWWWW\n"


@pytest.mark.parametrize(
    "error",
    [
        asp.PairingError("witness landed on a W leaf"),
        DomainError("point outside the root box"),
        ValueError("bad value"),
    ],
)
def test_library_errors_exit_1_with_one_line(tmp_path, capsys, monkeypatch, error):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(asp, "compute_aspects", fail)
    code = run(["aspects", "--mechanism", "m2", "--depth", "3", "--out", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err == f"error: {error}\n"


def test_working_mode_minus_minus_spelled_mm(tmp_path, capsys):
    out = tmp_path / "w.qt"
    assert run(
        [
            "workspace",
            "--mechanism", "m2",
            "--depth", "3",
            "--working-mode", "mm",
            "--assembly-mode=+",
            "--out", str(out),
        ]
    ) == 0
    combo = asp.ModeCombo(WorkingMode(-1, -1), AssemblyMode(1))
    classify = BoxClassifier(WORKSPACE, M2, combo.wm, combo.am)
    expected = qt.build(space_box(M2, WORKSPACE), 3, classify)
    assert out.read_text() == qt.serialize(expected)
    with pytest.raises(SystemExit):
        run(["workspace", "--help"])
    assert "mm" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# render
# ---------------------------------------------------------------------------


def test_render_round_trip_identical(tmp_path):
    tree = tmp_path / "t.qt"
    run(["workspace", "--mechanism", "m2", "--depth", "4", "--out", str(tree)])
    svg_a = tmp_path / "a.svg"
    svg_b = tmp_path / "b.svg"
    assert run(["render", str(tree), "--out", str(svg_a)]) == 0
    # re-serialize through deserialize and render again: byte-identical
    rewritten = tmp_path / "t2.qt"
    rewritten.write_text(qt.serialize(qt.deserialize(tree.read_text())))
    assert run(["render", str(rewritten), "--out", str(svg_b)]) == 0
    assert svg_a.read_bytes() == svg_b.read_bytes()


def test_render_flags(tmp_path):
    tree = tmp_path / "t.qt"
    run(["workspace", "--mechanism", "m2", "--depth", "4", "--out", str(tree)])
    plain = tmp_path / "p.svg"
    undet = tmp_path / "u.svg"
    labeled = tmp_path / "l.svg"
    run(["render", str(tree), "--out", str(plain)])
    run(["render", str(tree), "--show-undetermined", "--out", str(undet)])
    run(["render", str(tree), "--label-regions", "--out", str(labeled)])
    assert undet.read_text().count("<rect ") > plain.read_text().count("<rect ")


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def test_bench_stdout_csv(capsys):
    assert run(["bench", "--mechanism", "m2", "--space", "jointspace", "--depths", "3,4"]) == 0
    out = capsys.readouterr().out
    rows = parse_table(out)
    assert [(r.space, r.depth) for r in rows] == [("jointspace", 3), ("jointspace", 4)]
    assert all(r.mechanism == "m2" for r in rows)


def test_bench_both_spaces_to_file(tmp_path):
    out = tmp_path / "bench.csv"
    assert run(["bench", "--mechanism", "m2", "--depths", "3", "--out", str(out)]) == 0
    rows = parse_table(out.read_text())
    assert {r.space for r in rows} == {"jointspace", "workspace"}


def test_bench_bad_depths_usage_error():
    with pytest.raises(SystemExit) as exc:
        run(["bench", "--mechanism", "m2", "--depths", "3,zebra"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_reports_zero_violations(capsys):
    code = run(
        [
            "verify",
            "--mechanism", "m2",
            "--space", "workspace",
            "--depth", "5",
            "--samples", "200",
            "--seed", "7",
        ]
    )
    assert code == 0
    assert re.fullmatch(r"violations=0 samples=200", capsys.readouterr().out.strip())


def test_verify_with_mode_combo(capsys):
    code = run(
        [
            "verify",
            "--mechanism", "m1",
            "--space", "jointspace",
            "--depth", "5",
            "--working-mode=-+",
            "--assembly-mode", "+",
            "--samples", "100",
        ]
    )
    assert code == 0


# ---------------------------------------------------------------------------
# aspects
# ---------------------------------------------------------------------------


def test_aspects_writes_all_artifacts(tmp_path, capsys):
    out_dir = tmp_path / "aspects"
    assert run(
        ["aspects", "--mechanism", "m2", "--depth", "6", "--out", str(out_dir)]
    ) == 0
    trees = sorted(p.name for p in out_dir.glob("*.qt"))
    assert len(trees) == 16  # 8 combos x 2 spaces
    assert len(list(out_dir.glob("*.svg"))) == 16
    pairing = (out_dir / "pairing.csv").read_text().splitlines()
    assert pairing[0] == (
        "combo,parallel_region,serial_region,witness_x,witness_y,witness_t1,witness_t2,area"
    )
    assert len(pairing) > 8  # at least one pair per combo
    overlap = (out_dir / "overlap.csv").read_text().splitlines()
    assert overlap[0] == "am,wm_a,wm_b,area"
    assert len(overlap) == 1 + 32
    stdout = capsys.readouterr().out
    assert stdout.count("combo ") == 8


@pytest.mark.parametrize(
    "argv",
    [
        ["aspects", "--mechanism", "m2", "--depth", "6", "--out", "unused"],
        ["jointspace", "--depth", "3", "--out", "unused.qt"],
        ["workspace", "--depth", "3", "--out", "unused.qt"],
        ["bench", "--depths", "3"],
        ["verify", "--space", "jointspace", "--depth", "3"],
    ],
)
def test_jobs_option_is_gone(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run([*argv, "--jobs", "4"])
    assert exc.value.code == 2
    assert _usage_error(capsys) == "fivebar: error: unrecognized arguments: --jobs 4"
    assert not any(tmp_path.iterdir())
