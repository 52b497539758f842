"""Command-line surface: outputs, formats, determinism, error handling."""

import errno
import hashlib
import io
import json
import math
import os
import pathlib
import stat
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qtetra import cli
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
        message = ("Unable to allocate 5.96 GiB for an array with shape (20000, 20000) "
                   "and data type complex128")

        def exhausted(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "amplitude_sweep", exhausted)
        path = tmp_path / "out"
        path.write_text("earlier output\n")
        code, out, err = run_cli(
            capsys, "sweep", "--grid-theta", "20000", "--grid-phi", "20000", "--out", str(path)
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


# SHA-256 of the --out bytes, recorded from earlier code; each equals the
# same argument list in perfbench/goldens.json. Any change to a number or its
# formatting moves them.
PINNED_OUTPUTS = {
    ("table1",): "8c225e4a6243be36afb978b27dad772e4d1cdcf8538d38dda8cd94188fab2e1b",
    ("table2", "--format", "json"):
        "d9c9d565a161c3cd27c49e8d72031699ae13fdc9aeccaf1e9f39db2a6ccf7604",
    ("amplitude", "--states", "C0,C1"):
        "63a3148fc0b0bee1b226cb4a6231a2a9fac1535f6128e6c1c8741179c9f5bf98",
    ("experiment", "--seed", "7"):
        "b017e3577d655ae2bbff2d5c397f85bccfbbeb98fefe46fc7f49eebbce09b468",
    ("tetra", "--states", "C0,C1", "--convention", "normals"):
        "94bfdb26ecb5614a4508651e0d529a52b8ee4f34cec035b9999f675f0155c3dd",
    ("fluct", "--states", "A0,B0"):
        "2a088643e37e77c7538b6e1fbc01989df0cb82678a9ace4900ef0c776840dc68",
    ("reconstruct", "--states", "C1"):
        "ee1711a9e7a519e24ee7805e550250e85edf8295cfa31c4eee13558ce38edf0e",
    ("reconstruct", "--states", "D1", "--format", "json"):
        "640c28ca578e2fdfc49af737c95bc67e9b2d9d648f6de4d765d60c83a1008eb6",
    ("reconstruct", "--states", "B0,D0", "--format", "json"):
        "d243403c00a9027167afb00044a8cf16a521b54d273a4d19488e5be69cb5b43c",
    ("sweep", "--grid-theta", "45", "--grid-phi", "90"):
        "41ce38dd2298bd89d85b715520c27013149a5168cd9898150a157316e6a75bc6",
    ("sweep", "--grid-theta", "30", "--grid-phi", "60", "--format", "json"):
        "3320b70ebcb70e8dcfddf08115ed54d92037e6caac5d46ad778be4f99b192d26",
    ("sweep", "--grid-theta", "60", "--grid-phi", "120"):
        "d91010d81445e8196cda8593d1fbaf2a0f09bca0d6ce4f8cac23a44a37992f71",
    ("amplitude", "--states", "A0"):
        "e0c6d9fdeb524e4913dee3e65c65e81ecb9b5c65ca0e71448468913433a569ac",
    ("amplitude", "--theta", "0.7", "--phi", "2.0", "--format", "json"):
        "d042cd4b6a6fc319ee07a5199e3bc1c8850cc364db74516569eb4f3b8ae7ff01",
    ("experiment", "--seed", "1", "--states", "A0,C1"):
        "f73c40e46f2d759badbb330753ba1d0c12e9a669e6993b2e3f84584db4315d05",
    ("experiment", "--seed", "42", "--format", "json"):
        "979a191c31b1e32718ac80e0dafbaecae6b39093de6020ac0b39d262a60c3413",
    ("table1", "--format", "json"):
        "8f88619ac637f57bf51370da343a6b011706d6bffe4bac15dc327fada339ad2e",
    ("sweep", "--grid-theta", "200", "--grid-phi", "400"):
        "f8bfc7f6336f30a6c167af1c5ef0350b5fcdaa21bfce519b4bf8531b4a9e9403",
    ("sweep", "--grid-theta", "200", "--grid-phi", "400", "--format", "json"):
        "55dc6887e167ae1902a017f0ee257e44be6d6bd6af06cb876be715adad2920f8",
    ("table2",): "704cb480aeec52547e025c49f2fc263e5a8cadb92d4d3433e4da5332f0e256a9",
    ("tetra", "--theta", "0", "--phi", "0"):
        "c6cedeee80c2d18e7f2a8ca0101d6d14355f5888e30a4215c397cc6d0624715f",
    ("tetra", "--states", "A0,B0,C0,D0,E0", "--format", "json"):
        "52077288f01d22b27b558c85af87607dfab98969fead531461fe38ab4fe939e6",
    ("fluct", "--theta", "1.2", "--phi", "0.5"):
        "e9574793d02204b994870d86d47dbaedb0c8fb79d86e08fb9d9655388f020583",
    ("fluct", "--states", "A1,B1,C1,D1,E1", "--format", "json"):
        "668fb2a2872b452bb5ad8e2a7101eca48eefb32e230511963169ad823b5718d2",
}


# The first pins, one per command, keep the bare command name as their id.
_BARE_ID_PINS = 6


def _pin_id(argv) -> str:
    """The command name for a first pin, else the command with its arguments.

    A later pin without arguments is marked "-defaults", so that it does not
    take the id of its command's first pin.
    """
    if list(PINNED_OUTPUTS).index(argv) < _BARE_ID_PINS:
        return argv[0]
    if len(argv) == 1:
        return f"{argv[0]}-defaults"
    return "-".join(arg.lstrip("-") for arg in argv)


@pytest.mark.parametrize("argv", sorted(PINNED_OUTPUTS), ids=_pin_id)
def test_output_bytes_pinned(argv, tmp_path, capsys):
    path = tmp_path / "out"
    code, _, err = run_cli(capsys, *argv, "--out", str(path))
    assert code == 0, err
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_OUTPUTS[argv]


def test_pins_are_the_benchmark_goldens():
    """Every benchmark golden is pinned here, and with the same hash."""
    goldens = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "goldens.json"
    pinned = {" ".join(argv): sha for argv, sha in PINNED_OUTPUTS.items()}
    assert pinned == json.loads(goldens.read_text(encoding="utf-8"))
