"""Command-line surface: outputs, formats, determinism, error handling."""

import contextlib
import errno
import hashlib
import io
import json
import math
import os
import pathlib
import re
import stat
import subprocess
import sys
import threading
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qtetra import cli, named_states
from qtetra.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTetra:
    def test_north_pole_row(self, capsys):
        code, out, err = run_cli(capsys, "tetra", "--theta", "0", "--phi", "0")
        assert code == 0 and err == ""
        header, row = out.strip().split("\n")
        assert header == "state,theta,phi,cos12,cos13,cos14"
        cells = row.split(",")
        assert float(cells[3]) == pytest.approx(1.0)
        assert float(cells[4]) == pytest.approx(0.0)
        assert float(cells[5]) == pytest.approx(0.0)

    def test_named_states(self, capsys):
        code, out, _ = run_cli(capsys, "tetra", "--states", "C0,C1")
        assert code == 0
        rows = out.strip().split("\n")[1:]
        assert len(rows) == 2
        for row in rows:
            cells = row.split(",")
            for value in cells[3:]:
                assert float(value) == pytest.approx(1 / 3, abs=1e-12)

    def test_normals_convention(self, capsys):
        code, out, _ = run_cli(
            capsys, "tetra", "--states", "C0", "--convention", "normals"
        )
        assert code == 0
        cells = out.strip().split("\n")[1].split(",")
        assert float(cells[3]) == pytest.approx(-1 / 3, abs=1e-12)

    def test_normals_cells_negate_interior_cells(self, capsys):
        rng = np.random.default_rng(3)
        points = ("--states", "A0,B0,C0,D0,E0,A1,B1,C1,D1,E1",
                  "--theta", repr(rng.uniform(0, math.pi)),
                  "--phi", repr(rng.uniform(0, 2 * math.pi)))
        _, interior, _ = run_cli(capsys, "tetra", *points)
        code, normals, _ = run_cli(capsys, "tetra", *points, "--convention", "normals")
        assert code == 0
        interior_rows = interior.strip().split("\n")[1:]
        normals_rows = normals.strip().split("\n")[1:]
        assert len(interior_rows) == len(normals_rows) == 11
        for interior_row, normals_row in zip(interior_rows, normals_rows):
            interior_cells, normals_cells = interior_row.split(","), normals_row.split(",")
            assert normals_cells[:3] == interior_cells[:3]
            for inside, outside in zip(interior_cells[3:], normals_cells[3:]):
                assert float(outside) == -float(inside)
                assert math.copysign(1.0, float(outside)) == -math.copysign(1.0, float(inside))

    def test_mismatched_point_flags(self, capsys):
        code, _, err = run_cli(capsys, "tetra", "--theta", "0.5")
        assert code == 1
        assert err.startswith("error:")

    def test_no_points(self, capsys):
        code, _, err = run_cli(capsys, "tetra")
        assert code == 1 and "no input points" in err


class TestFluct:
    def test_named_rows(self, capsys):
        code, out, _ = run_cli(capsys, "fluct", "--states", "A0,C0")
        rows = out.strip().split("\n")[1:]
        assert code == 0
        assert float(rows[0].split(",")[3]) == pytest.approx(2 / 3)
        assert float(rows[1].split(",")[3]) == pytest.approx(4 / 3)

    def test_convention_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["fluct", "--states", "C0", "--convention", "normals"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --convention normals" in capsys.readouterr().err


class TestReconstruct:
    def test_regular_state(self, capsys):
        code, out, _ = run_cli(capsys, "reconstruct", "--states", "C0")
        assert code == 0
        cells = out.strip().split("\n")[1].split(",")
        assert cells[3] == "ok"
        params = [float(v) for v in cells[4:]]
        assert params[0] > 0

    def test_degenerate_point_flagged(self, capsys):
        code, out, _ = run_cli(capsys, "reconstruct", "--states", "A0")
        assert code == 0
        cells = out.strip().split("\n")[1].split(",")
        assert cells[3] == "infeasible"

    def test_infeasible_detail_carries_gram_eigenvalues(self, capsys):
        code, out, _ = run_cli(capsys, "reconstruct", "--states", "A0", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload[0]["status"] == "infeasible"
        assert "Gram eigenvalues" in payload[0]["detail"]

    def test_seed_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["reconstruct", "--states", "C1", "--seed", "1"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err

    def test_json_contains_vertices(self, capsys):
        code, out, _ = run_cli(capsys, "reconstruct", "--states", "C1", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload[0]["status"] == "ok"
        assert set(payload[0]["vertices"]) == {"A", "B", "C", "D"}


class TestAmplitudeAndSweep:
    def test_amplitude_zero_at_c0(self, capsys):
        code, out, _ = run_cli(capsys, "amplitude", "--states", "C0")
        assert code == 0
        cells = out.strip().split("\n")[1].split(",")
        assert abs(float(cells[5])) < 1e-14  # the abs column

    def test_sweep_row_count(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--grid-theta", "2", "--grid-phi", "2")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "theta,phi,re,im,abs,phase"
        assert len(lines) == 1 + 4

    def test_sweep_rejects_empty_grid(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--grid-theta", "0", "--grid-phi", "3")
        assert code == 1 and "positive" in err

    def test_sweep_over_the_cell_limit_is_one_error_line(self, monkeypatch, capsys):
        def never(*args, **kwargs):
            raise AssertionError("fifth_node_sweep called")

        monkeypatch.setattr(named_states, "fifth_node_sweep", never)
        started = time.perf_counter()
        code, out, err = run_cli(capsys, "sweep", "--grid-theta", "20000", "--grid-phi", "20000")
        assert time.perf_counter() - started < 1.0
        assert code == 1 and out == ""
        assert err == ("error: a 20000x20000 sweep has 400000000 cells; "
                       f"the limit is {cli.MAX_SWEEP_CELLS}\n")


class TestTables:
    def test_table2_coordinates_and_flags(self, capsys):
        code, out, _ = run_cli(capsys, "table2")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 11
        rows = {line.split(",")[0]: line.split(",") for line in lines[1:]}
        assert float(rows["B0"][1]) == pytest.approx(math.pi / 5)
        assert float(rows["B0"][2]) == pytest.approx(0.0)
        # the two regular states carry the disagreement note, others do not
        for name in ("C0", "C1"):
            assert "both emitted" in ",".join(rows[name])
            assert float(rows[name][3]) == pytest.approx(4 / 3)
            assert float(rows[name][4]) == pytest.approx(2 / 3)
        assert rows["A0"][5] == ""

    def test_table1_fit_quality(self, capsys):
        code, out, _ = run_cli(capsys, "table1", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["convention"] == {"slot_rule": "cyclic", "regular_state": "C1"}
        assert payload["inconsistency_factor"] == pytest.approx(math.sqrt(2), abs=1e-4)
        for row in payload["rows"]:
            if row["state"] not in ("C1",):
                assert row["rel_err_consistent"] < 1e-3
        notes = {row["state"]: row["note"] for row in payload["rows"]}
        assert "sqrt(2)" in notes["C1"]


class TestExperimentCommand:
    def test_csv_rows(self, capsys):
        code, out, _ = run_cli(capsys, "experiment", "--states", "A0,B0", "--seed", "5")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 3
        fidelity = float(lines[1].split(",")[3])
        assert fidelity > 0.95

    def test_json_schema(self, capsys):
        code, out, _ = run_cli(
            capsys, "experiment", "--states", "A0", "--format", "json", "--seed", "9"
        )
        payload = json.loads(out)
        assert payload["noise"]["seed"] == 9
        target = payload["targets"][0]
        assert {"fidelity", "delta_theory", "delta_measured", "amplitude_purified"} <= set(target)

    def test_point_flags_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["experiment", "--theta", "0.3", "--phi", "1.0"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --theta 0.3 --phi 1.0" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-0.5"])
    def test_bad_rotation_sd_is_one_error_line(self, value, capsys):
        code, out, err = run_cli(capsys, "experiment", "--states", "A0", "--rotation-sd", value)
        assert code == 1 and out == ""
        assert err == f"error: rotation_angle_sd must be finite and non-negative, got {value}\n"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("flags, message", [
        (("--rotation-sd", "1e308"),
         "rotation_angle_sd 1e+308 is too large: a drawn z-rotation angle overflowed"),
        (("--seed", "-1"), "seed must be a non-negative integer, got -1"),
        (("--depolarizing-p", "1"),
         "depolarizing_p = 1.0 leaves a purification gap 1 - p = 0.000e+00 below "
         "PURIFY_GAP_ATOL = 1e-10, so there is no dominant eigenvector to purify"),
        (("--depolarizing-p", "0.99999999999"),
         "depolarizing_p = 0.99999999999 leaves a purification gap 1 - p = 1.000e-11 below "
         "PURIFY_GAP_ATOL = 1e-10, so there is no dominant eigenvector to purify"),
    ], ids=["rotation-overflow", "negative-seed", "fully-depolarized", "gap-below-atol"])
    def test_noise_out_of_reach_is_one_error_line(self, flags, message, capsys):
        code, out, err = run_cli(capsys, "experiment", *flags)
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"

    def test_gap_at_the_bar_runs_or_names_the_weight(self, capsys):
        # 1 - p = 1e-10 passes the up-front check; eigh's last bits, which
        # depend on the CPU kernel, decide whether the measured gap does too
        code, out, err = run_cli(capsys, "experiment", "--states", "A0",
                                 "--depolarizing-p", "0.9999999999")
        if code == 0:
            assert err == "" and len(out.strip().split("\n")) == 2
        else:
            assert code == 1 and out == ""
            assert re.fullmatch(r"error: target A0: dominant eigenvalue is degenerate \(gap "
                                r"\S+ below PURIFY_GAP_ATOL = 1e-10, between 0\.062500 and "
                                r"0\.062500\), with depolarizing_p = 0\.9999999999 leaving "
                                r"1 - p = 1\.000000082740371e-10\n", err), err

    def test_depolarizing_just_within_reach_runs(self, capsys):
        code, out, err = run_cli(capsys, "experiment", "--states", "A0",
                                 "--depolarizing-p", "0.999999999")
        assert code == 0 and err == ""
        assert len(out.strip().split("\n")) == 2

    def test_negative_zero_noise_runs_as_zero(self, capsys):
        def run(value):
            return run_cli(capsys, "experiment", "--states", "B0", "--format", "json",
                           "--rotation-sd", value, "--depolarizing-p", value)

        code, out, err = run("-0.0")
        assert code == 0 and err == ""
        assert out == run("0")[1]

    def test_unknown_state_lists_known(self, capsys):
        code, out, err = run_cli(capsys, "experiment", "--states", "A0,Z9")
        assert code == 1 and out == ""
        assert err == (
            "error: unknown state 'Z9'; known: A0, B0, C0, D0, E0, A1, B1, C1, D1, E1\n"
        )


class TestPlumbing:
    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["transmogrify"])
        assert excinfo.value.code != 0

    def test_no_command(self, capsys):
        code, _, err = run_cli(capsys)
        assert code == 2 and "no command" in err

    def test_unwritable_output(self, capsys):
        code, _, err = run_cli(
            capsys, "table2", "--out", "/nonexistent-dir/out.csv"
        )
        assert code == 1 and err.startswith("error:")

    def test_invalid_theta(self, capsys):
        code, _, err = run_cli(capsys, "fluct", "--theta", "9.9", "--phi", "0")
        assert code == 1 and "theta" in err

    def test_file_output_deterministic(self, tmp_path, capsys):
        first = tmp_path / "one.csv"
        second = tmp_path / "two.csv"
        for path in (first, second):
            code, _, _ = run_cli(
                capsys, "experiment", "--states", "D1",
                "--seed", "13", "--out", str(path),
            )
            assert code == 0
        assert first.read_bytes() == second.read_bytes()

    def test_sweep_file_deterministic(self, tmp_path, capsys):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            code, _, _ = run_cli(
                capsys, "sweep", "--grid-theta", "4", "--grid-phi", "4",
                "--out", str(path),
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_config_file(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text(
            "# comment line\n"
            "command = sweep\n"
            "grid_theta = 2\n"
            "grid_phi = 3\n"
            "format = csv\n"
        )
        code, out, _ = run_cli(capsys, "--config", str(config))
        assert code == 0
        assert len(out.strip().split("\n")) == 1 + 6

    def test_config_negative_exponent_reaches_the_noise_check(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("command = experiment\nstates = A0\nrotation_sd = -1e-05\n")
        code, out, err = run_cli(capsys, "--config", str(config))
        assert code == 1 and out == ""
        assert err == "error: rotation_angle_sd must be finite and non-negative, got -1e-05\n"

    def test_config_lines_become_key_value_tokens(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("command = experiment\n# noise\nrotation_sd = -inf\nseed = 3\n")
        assert cli._argv_from_config(str(config)) == [
            "experiment", "--rotation-sd=-inf", "--seed=3"]

    def test_config_key_abbreviating_a_flag_rejected(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("command = tetra\nstate = A0\n")
        code, out, err = run_cli(capsys, "--config", str(config))
        assert code == 1 and out == ""
        assert err == "error: unknown config key 'state'\n"

    @pytest.mark.parametrize("lines", [
        "command = tetra\nstates = A0\nstates = B0\n",
        "command = tetra\ncommand = fluct\nstates = A0\n",
    ])
    def test_config_key_repeated_with_one_value_rejected(self, lines, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text(lines)
        code, out, err = run_cli(capsys, "--config", str(config))
        key = lines.split("\n")[1].split()[0]
        assert code == 1 and out == ""
        assert err == f"error: config key {key!r} is set more than once\n"

    def test_config_appending_keys_may_repeat(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("command = fluct\ntheta = 0.5\nphi = 1.0\ntheta = 1.5\nphi = 2.0\n")
        code, out, _ = run_cli(capsys, "--config", str(config))
        expected = run_cli(capsys, "fluct", "--theta", "0.5", "--phi", "1.0",
                           "--theta", "1.5", "--phi", "2.0")
        assert code == 0 and (code, out) == expected[:2]

    def test_config_with_command_rejected(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("command = table2\n")
        code, out, err = run_cli(
            capsys, "--config", str(config), "sweep", "--grid-theta", "2", "--grid-phi", "2"
        )
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_config_requires_command(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("grid_theta = 2\n")
        code, _, err = run_cli(capsys, "--config", str(config))
        assert code == 1 and "command" in err

    def test_out_of_memory_is_one_error_line(self, monkeypatch, tmp_path, capsys):
        message = ("Unable to allocate 137 MiB for an array with shape (3000, 3000) "
                   "and data type complex128")

        def exhausted(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(named_states, "fifth_node_sweep", exhausted)
        path = tmp_path / "out"
        path.write_text("earlier output\n")
        code, out, err = run_cli(
            capsys, "sweep", "--grid-theta", "3000", "--grid-phi", "3000", "--out", str(path)
        )
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"
        assert path.read_text() == "earlier output\n"
        assert os.listdir(tmp_path) == ["out"]

    def test_json_mirrors_csv_values(self, capsys):
        _, csv_out, _ = run_cli(capsys, "fluct", "--states", "E0")
        _, json_out, _ = run_cli(capsys, "fluct", "--states", "E0", "--format", "json")
        csv_delta = float(csv_out.strip().split("\n")[1].split(",")[3])
        json_delta = json.loads(json_out)[0]["delta"]
        assert csv_delta == json_delta


class _DiskFullHandle:
    """A text handle that passes its first write through, then fails as a full disk."""

    def __init__(self, handle):
        self.handle = handle
        self.writes = 0

    def write(self, text):
        self.writes += 1
        if self.writes > 1:
            raise OSError(errno.ENOSPC, "No space left on device")
        self.handle.write(text)
        self.handle.flush()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.handle.close()


class TestAtomicOut:
    SWEEP = ("sweep", "--grid-theta", "3", "--grid-phi", "4")

    @pytest.fixture
    def disk_full(self, monkeypatch):
        monkeypatch.setattr(cli, "_CHUNK_ROWS", 2)
        monkeypatch.setattr(cli, "open", lambda *a, **k: _DiskFullHandle(open(*a, **k)),
                            raising=False)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_failed_write_leaves_no_file(self, fmt, disk_full, tmp_path, capsys):
        path = tmp_path / "out"
        code, out, err = run_cli(capsys, *self.SWEEP, "--format", fmt, "--out", str(path))
        assert code == 1 and out == ""
        assert err == "error: [Errno 28] No space left on device\n"
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_failed_write_keeps_existing_file(self, fmt, disk_full, tmp_path, capsys):
        path = tmp_path / "out"
        path.write_text("earlier output\n")
        code, _, err = run_cli(capsys, *self.SWEEP, "--format", fmt, "--out", str(path))
        assert code == 1 and err.count("\n") == 1 and err.startswith("error:")
        assert path.read_text() == "earlier output\n"
        assert os.listdir(tmp_path) == ["out"]

    def test_new_file_mode_follows_umask(self, tmp_path, capsys):
        old = os.umask(0o027)
        try:
            code, _, _ = run_cli(capsys, "table2", "--out", str(tmp_path / "out"))
        finally:
            os.umask(old)
        assert code == 0
        assert stat.S_IMODE((tmp_path / "out").stat().st_mode) == 0o640

    def test_replaced_file_keeps_its_mode(self, tmp_path, capsys):
        path = tmp_path / "out"
        path.write_text("earlier output\n")
        path.chmod(0o604)
        code, _, _ = run_cli(capsys, "table2", "--out", str(path))
        assert code == 0 and path.read_text().startswith("state,theta,phi")
        assert stat.S_IMODE(path.stat().st_mode) == 0o604
        assert os.listdir(tmp_path) == ["out"]

    def test_pipe_is_written_in_place(self, tmp_path, capsys):
        pipe = tmp_path / "pipe"
        os.mkfifo(pipe)
        received = []
        reader = threading.Thread(target=lambda: received.append(pipe.read_text()), daemon=True)
        reader.start()
        code, _, err = run_cli(capsys, "table2", "--out", str(pipe))
        reader.join(timeout=30)
        assert code == 0, err
        assert not reader.is_alive() and received[0].startswith("state,theta,phi")
        assert stat.S_ISFIFO(pipe.lstat().st_mode)
        assert os.listdir(tmp_path) == ["pipe"]

    def test_directory_is_an_error(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "table2", "--out", str(tmp_path))
        assert code == 1 and err.startswith("error:") and err.count("\n") == 1
        assert os.listdir(tmp_path) == []

    def test_symlink_is_written_through(self, tmp_path, capsys):
        (tmp_path / "data").mkdir()
        link = tmp_path / "link"
        link.symlink_to(tmp_path / "data" / "out")
        code, _, _ = run_cli(capsys, "table2", "--out", str(link))
        assert code == 0 and link.is_symlink()
        assert (tmp_path / "data" / "out").read_text().startswith("state,theta,phi")


# The writers as they were before output was streamed, kept verbatim as the
# reference the streamed writers must match byte for byte.
def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _write_csv(header: list[str], rows: list[list], out) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(cell if isinstance(cell, str) else _fmt(cell) for cell in row))
    out.write("\n".join(lines) + "\n")


def _write_json(obj, out) -> None:
    out.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _rows_to_json(header: list[str], rows: list[list]) -> list[dict]:
    return [
        {key: (cell if isinstance(cell, str) else float(cell)) for key, cell in zip(header, row)}
        for row in rows
    ]


_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e16, 1e-5]),
    st.floats().map(np.float64),
    st.integers(-(2**60), 2**60),
)
_TEXTS = st.one_of(
    st.text(max_size=8),
    st.sampled_from(['say "hi"', "back\\slash", "a,b", "naïve Δ", "\u2028", "", "\n"]),
)


@st.composite
def _tables(draw):
    """A header and rows whose columns each hold one kind of cell."""
    kinds = draw(st.lists(st.sampled_from([_FLOATS, _TEXTS]), min_size=1, max_size=5))
    header = draw(st.lists(st.sampled_from(["re", "im", "state", "é", 'k"y', "a,b"])
                           | st.text(max_size=4), min_size=len(kinds), max_size=len(kinds)))
    rows = draw(st.lists(st.tuples(*kinds).map(list), max_size=7))
    return header, rows


_ONE_ROW = (["state", "re"], [["C1", np.float64(-0.0)]])
_NO_ROWS = (["theta", "phi"], [])


class TestStreamedWriters:
    @given(_tables(), st.integers(1, 4))
    @example(_ONE_ROW, 1)
    @example(_NO_ROWS, 1)
    @settings(max_examples=300, deadline=None)
    def test_csv_matches_reference(self, table, chunk):
        header, rows = table
        expected, actual = io.StringIO(), io.StringIO()
        _write_csv(header, rows, expected)
        with mock.patch.object(cli, "_CHUNK_ROWS", chunk):
            cli._write_csv(header, iter(rows), actual)
        assert actual.getvalue() == expected.getvalue()

    @given(_tables(), st.integers(1, 4))
    @example(_ONE_ROW, 1)
    @example(_NO_ROWS, 1)
    @settings(max_examples=300, deadline=None)
    def test_json_matches_reference(self, table, chunk):
        header, rows = table
        expected, actual = io.StringIO(), io.StringIO()
        _write_json(_rows_to_json(header, rows), expected)
        with mock.patch.object(cli, "_CHUNK_ROWS", chunk):
            cli._write_json_rows(header, iter(rows), actual)
        assert actual.getvalue() == expected.getvalue()


# Edge values for the noise flags, and for the seed, beside hypothesis's own draws
_NOISE_EDGES = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1 - 1e-9, 1 - 1e-11, 1.0,
                1 + 2**-52, 2.0, -1.0, 1e308]
_SEED_EDGES = [-1, 0, 1, 2**31 - 1, 2**32, 2**63, 2**64, 2**128]


def _run_in_process(argv):
    """(exit code, stdout, stderr) of one cli.main call, argparse's SystemExit included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


class TestExperimentBoundary:
    """Any noise setting ends in finite numbers, in one error line, or in a usage error."""

    @pytest.mark.filterwarnings("error")
    @given(st.sampled_from(_NOISE_EDGES) | st.floats(0, 1) | st.floats(),
           st.sampled_from(_NOISE_EDGES) | st.floats(0, 4) | st.floats(),
           st.sampled_from(_SEED_EDGES) | st.integers(0, 2**64) | st.integers(-(2**130), 2**130))
    @example(1 - 1e-9, 0.04, 42)
    @example(1 - 1e-11, 0.04, 42)
    @example(0.02, 1e308, 2**128)
    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    def test_ends_in_a_result_or_one_error_line(self, p, sd, seed):
        argv = ["experiment", "--states", "A0", "--depolarizing-p", repr(p),
                "--rotation-sd", repr(sd), "--seed", str(seed)]
        code, out, err = _run_in_process(argv)
        if code == 0:
            assert err == ""
            for row in out.splitlines()[1:]:
                assert all(math.isfinite(float(cell)) for cell in row.split(",")[1:]), row
        elif code == 1:
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err
        else:
            # argparse reads a value such as "-inf" as an option
            assert code == 2 and out == "" and err.startswith("usage: "), err
        assert _run_in_process(argv) == (code, out, err)


# SHA-256 of the --out bytes of every benchmark argument list, recorded from
# earlier code. Any change to a number or its formatting moves them.
GOLDENS_PATH = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "goldens.json"
GOLDENS = json.loads(GOLDENS_PATH.read_text(encoding="utf-8"))

# The first pin of each command has long carried the bare command name as its
# id, and the argument-less table2 run "table2-defaults"; they keep those ids.
_KEPT_PIN_IDS = {
    "amplitude --states C0,C1": "amplitude",
    "experiment --seed 7": "experiment",
    "fluct --states A0,B0": "fluct",
    "table2": "table2-defaults",
    "table2 --format json": "table2",
    "tetra --states C0,C1 --convention normals": "tetra",
}


def _pin_id(args: str) -> str:
    """The kept id, else the argument string with " --" and spaces as "-"."""
    return _KEPT_PIN_IDS.get(args, args.replace(" --", " ").replace(" ", "-"))


@pytest.mark.parametrize("args", sorted(GOLDENS), ids=_pin_id)
def test_output_bytes_pinned(args, tmp_path, capsys):
    path = tmp_path / "out"
    code, _, err = run_cli(capsys, *args.split(), "--out", str(path))
    assert code == 0, err
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDENS[args]


# The pins whose bytes are the same under every kernel variant below; the
# others move in their last bits with numpy's SIMD kernels or OpenBLAS's.
PORTABLE_PINS = (
    "amplitude --theta 0.7 --phi 2.0 --format json",
    "fluct --states A0,B0",
    "fluct --states A1,B1,C1,D1,E1 --format json",
    "fluct --theta 1.2 --phi 0.5",
    "reconstruct --states B0,D0 --format json",
    "reconstruct --states C1",
    "reconstruct --states D1 --format json",
    "table2",
    "table2 --format json",
    "tetra --states A0,B0,C0,D0,E0 --format json",
    "tetra --states C0,C1 --convention normals",
    "tetra --theta 0 --phi 0",
)

# Each variant sets both variables, so the caller's own values cannot leak in.
KERNEL_VARIANTS = {
    "sse-only": {"NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR",
                 "OPENBLAS_CORETYPE": "Nehalem"},
    "openblas-haswell": {"NPY_DISABLE_CPU_FEATURES": "", "OPENBLAS_CORETYPE": "Haswell"},
}

# Runs every pin given as a JSON list in argv[1] through one cli.main each and
# prints their SHA-256 as JSON, or the reason numpy could not be imported.
_PIN_CHILD = """
import hashlib, json, os, sys, tempfile
try:
    import numpy
except Exception as exc:
    print(json.dumps({"skip": f"{type(exc).__name__}: {exc}"}))
    sys.exit(0)
from qtetra.cli import main
hashes = {}
with tempfile.TemporaryDirectory() as scratch:
    path = os.path.join(scratch, "out")
    for args in json.loads(sys.argv[1]):
        if main(args.split() + ["--out", path]) != 0:
            sys.exit(f"qtetra {args} failed")
        with open(path, "rb") as handle:
            hashes[args] = hashlib.sha256(handle.read()).hexdigest()
print(json.dumps({"hashes": hashes}))
"""


@pytest.mark.parametrize("variant", sorted(KERNEL_VARIANTS))
def test_portable_pins_hold_under_other_cpu_kernels(variant):
    """The portable pins hash equal when numpy and OpenBLAS take other x86-64 kernels.

    One child process per variant runs all of them. The variants emulate
    other x86-64 CPUs on the host's CPU only: they do not cover another libm
    (macOS, musl) or ARM. A variant whose child cannot import numpy is skipped.
    """
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, **KERNEL_VARIANTS[variant], "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    child = subprocess.run([sys.executable, "-c", _PIN_CHILD, json.dumps(PORTABLE_PINS)],
                           env=env, capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stderr
    result = json.loads(child.stdout)
    if "skip" in result:
        pytest.skip(f"numpy does not start under {variant}: {result['skip']}")
    assert result["hashes"] == {args: GOLDENS[args] for args in PORTABLE_PINS}
