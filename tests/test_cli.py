import json
import math
import shlex
from pathlib import Path

import numpy as np
import pytest

from rieszcap import measures
from rieszcap.cli import build_parser, main
from rieszcap.measures import DiscreteMeasure, load_measure, save_measure


@pytest.fixture
def three_atom_file(tmp_path):
    mu = DiscreteMeasure([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]], np.ones(3), delta=0.5)
    path = tmp_path / "three.json"
    save_measure(mu, path)
    return path


@pytest.fixture
def quarter_file(tmp_path):
    """Three atoms whose delta (0.25) differs from every default alpha."""
    mu = DiscreteMeasure([[0.0, 0.0], [1.0, 0.0], [2.0, 0.5]], np.ones(3), delta=0.25)
    path = tmp_path / "quarter.json"
    save_measure(mu, path)
    return path


class TestGen:
    def test_writes_measure_and_reports(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        code = main(["gen", "--n", "2", "--ratio", "0.25", "--depth", "3",
                     "--out", str(out)])
        assert code == 0
        mu = load_measure(out)
        assert mu.size == 64
        err = capsys.readouterr().err
        assert "atoms: 64" in err

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["gen", "--ratio", "0.3", "--depth", "4", "--out", str(a)])
        main(["gen", "--ratio", "0.3", "--depth", "4", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_non_finite_base_exit_3(self, tmp_path, capsys):
        code = main(["gen", "--ratio", "0.25", "--depth", "2", "--base", "nan",
                     "--out", str(tmp_path / "x.json")])
        assert code == 3
        assert "base side" in capsys.readouterr().err

    def test_size_cap_exit_2(self, tmp_path):
        code = main(["gen", "--ratio", "0.25", "--depth", "9",
                     "--out", str(tmp_path / "x.json")])
        assert code == 2

    def test_memory_budget_exit_2(self, tmp_path, monkeypatch, capsys):
        # The Wolff objective's (R, N) arrays are refused on their estimate
        # alone, before any distance row is built.
        path = tmp_path / "m.json"
        assert main(["gen", "--ratio", "0.25", "--depth", "2", "--out", str(path)]) == 0
        monkeypatch.setattr(measures, "_memory_budget", lambda: 8.0)

        def no_rows(*args):
            raise AssertionError("distance rows built past the budget")

        monkeypatch.setattr(measures, "_distance_rows", no_rows)
        code = main(["capacity", "--measure", str(path), "--alpha", "0.5",
                     "--out", str(tmp_path / "rows.csv")])
        assert code == 2
        assert "memory budget" in capsys.readouterr().err

    def test_lifted_atom_cap_over_budget_exit_2(self, tmp_path, monkeypatch, capsys):
        # --max-atoms lifts the cap; the Cantor arrays are refused on their
        # estimate alone, before any is built.
        monkeypatch.setattr(measures, "_memory_budget", lambda: 2.0**30)

        def no_build(*args):
            raise AssertionError("Cantor arrays built past the budget")

        monkeypatch.setattr(measures, "_cantor_atoms", no_build)
        code = main(["gen", "--ratio", "0.25", "--depth", "12", "--max-atoms", str(1 << 24),
                     "--out", str(tmp_path / "x.json")])
        assert code == 2
        assert "memory budget" in capsys.readouterr().err

    def test_dimension_flag(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        assert main(["gen", "--dimension", "0.5", "--depth", "1",
                     "--out", str(out)]) == 0
        assert "similarity_dimension: 0.5" in capsys.readouterr().err

    def test_defaults_n2_depth3(self, tmp_path):
        out = tmp_path / "m.json"
        assert main(["gen", "--ratio", "0.25", "--out", str(out)]) == 0
        mu = load_measure(out)
        assert (mu.n, mu.size, mu.delta) == (2, 64, 0.25**3)

    def test_requires_ratio_or_dimension(self, tmp_path):
        assert main(["gen", "--depth", "2", "--out", str(tmp_path / "x.json")]) == 3


class TestEnergy:
    def test_reference_fixture_value(self, three_atom_file, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        code = main(["energy", "--measure", str(three_atom_file),
                     "--alpha", "0.5", "--eps", "0.5", "--out", str(out)])
        assert code == 0
        header, row = out.read_text().strip().split("\n")
        cells = dict(zip(header.split(","), row.split(",")))
        assert float(cells["p_alpha"]) == pytest.approx(
            6 * (math.sqrt(2) - 1), rel=1e-12
        )
        assert float(cells["p_alpha"]) == pytest.approx(2.48528, abs=5e-6)

    def test_eps_sweep_monotone(self, three_atom_file, tmp_path):
        out = tmp_path / "rows.csv"
        main(["energy", "--measure", str(three_atom_file), "--alpha", "0.5",
              "--eps", "0.1,0.5,1.2,2.5", "--out", str(out)])
        lines = out.read_text().strip().split("\n")
        col = lines[0].split(",").index("p_alpha")
        vals = [float(line.split(",")[col]) for line in lines[1:]]
        assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))

    def test_malformed_measure_exit_3(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert main(["energy", "--measure", str(bad), "--alpha", "0.5"]) == 3

    def test_empty_measure_exit_3(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"n": 2, "delta": 1.0, "atoms": [], "weights": []}')
        assert main(["energy", "--measure", str(bad), "--alpha", "0.5"]) == 3

    @pytest.mark.parametrize("name, text", [
        ("zero.csv", "w\n1.0\n2.0\n"),
        ("zero.json", '{"n": 0, "delta": 1.0, "atoms": [[], []], "weights": [1, 1]}'),
    ], ids=["csv", "json"])
    def test_zero_dimensional_measure_exit_3(self, tmp_path, capsys, name, text):
        bad = tmp_path / name
        bad.write_text(text)
        assert main(["energy", "--measure", str(bad), "--alpha", "0.5"]) == 3
        assert "coordinate" in capsys.readouterr().err

    def test_json_format(self, three_atom_file, tmp_path):
        out = tmp_path / "rows.json"
        main(["energy", "--measure", str(three_atom_file), "--alpha", "0.5",
              "--eps", "0.5", "--format", "json", "--out", str(out)])
        doc = json.loads(out.read_text())
        assert doc[0]["N_atoms"] == 3

    @pytest.mark.parametrize("delta", ["null", "[0.5]", '"wide"', "NaN"])
    def test_malformed_delta_exit_3(self, tmp_path, delta):
        # An explicit eps, so that the refusal comes from the measure.
        bad = tmp_path / "bad.json"
        bad.write_text('{"n": 2, "delta": %s, "atoms": [[0, 0], [1, 0]], '
                       '"weights": [1, 1]}' % delta)
        assert main(["energy", "--measure", str(bad), "--eps", "0.5"]) == 3

    def test_defaults_one_row_at_alpha_half_and_delta(self, quarter_file, tmp_path):
        out = tmp_path / "rows.csv"
        assert main(["energy", "--measure", str(quarter_file), "--out", str(out)]) == 0
        header, *rows = out.read_text().strip().split("\n")
        assert len(rows) == 1
        cells = dict(zip(header.split(","), rows[0].split(",")))
        assert (float(cells["alpha"]), float(cells["eps"])) == (0.5, 0.25)


class TestCapacityCommand:
    def test_sweep_rows(self, tmp_path):
        out = tmp_path / "cap.csv"
        code = main(["capacity", "--alpha", "0.5", "--dim-factors", "1.5",
                     "--depths", "1,2", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].split(",")[:7] == [
            "set_id", "n", "alpha", "dim", "depth", "eps", "method"
        ]
        assert len(lines) == 1 + 2 * 2  # two methods per sweep point

    def test_default_grid(self, tmp_path):
        out = tmp_path / "cap.csv"
        assert main(["capacity", "--depths", "1", "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
        assert len(rows) == 3 * 3 * 2
        assert {(r[1], float(r[2]), float(r[3])) for r in rows} == {
            ("2", a, f * a) for a in (0.25, 0.5, 0.75) for f in (1.0, 1.2, 1.5)
        }

    def test_depth_sweep_value_decreasing(self, tmp_path):
        out = tmp_path / "cap.csv"
        main(["capacity", "--alpha", "0.5", "--dim-factors", "1.0",
              "--depths", "1,2,3", "--out", str(out)])
        lines = out.read_text().strip().split("\n")
        header = lines[0].split(",")
        vi, mi = header.index("value"), header.index("method")
        vals = [float(l.split(",")[vi]) for l in lines[1:]
                if l.split(",")[mi] == "max-potential-energy"]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_single_measure_input(self, tmp_path):
        mu = DiscreteMeasure([[0.0, 0.0]], [1.0], delta=1.0)
        path = tmp_path / "one.json"
        save_measure(mu, path)
        out = tmp_path / "cap.csv"
        code = main(["capacity", "--measure", str(path), "--alpha", "0.5",
                     "--eps", "1.0", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        header = lines[0].split(",")
        vi = header.index("value")
        vals = [float(l.split(",")[vi]) for l in lines[1:]]
        assert len(vals) == 2  # both proxy methods
        assert all(math.isfinite(v) and v > 0 for v in vals)

    def test_io_error_exit_4(self, tmp_path, three_atom_file):
        missing_dir = tmp_path / "no" / "such" / "dir" / "rows.csv"
        code = main(["energy", "--measure", str(three_atom_file),
                     "--alpha", "0.5", "--eps", "0.5", "--out", str(missing_dir)])
        assert code == 4


class TestCompareAndBilip:
    def test_compare_single_atom(self, tmp_path):
        mu = DiscreteMeasure([[0.0, 0.0]], [1.0], delta=1.0)
        path = tmp_path / "one.json"
        save_measure(mu, path)
        out = tmp_path / "cmp.json"
        code = main(["compare", "--measure", str(path), "--alpha", "0.5",
                     "--eps", "1.0", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert math.isfinite(doc["ratio"]) and doc["ratio"] > 0

    def test_bilip_identity(self, tmp_path, three_atom_file):
        out = tmp_path / "bl.json"
        code = main(["bilip", "--measure", str(three_atom_file), "--map",
                     "identity", "--alpha", "0.5", "--eps", "0.5",
                     "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["ratio"] == 1.0
        assert doc["within_bound"] is True

    def test_compare_defaults(self, tmp_path, quarter_file):
        out = tmp_path / "cmp.json"
        assert main(["compare", "--measure", str(quarter_file), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert (doc["alpha"], doc["eps"]) == (0.5, 0.25)

    def test_bilip_defaults(self, tmp_path, quarter_file):
        default, explicit = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["bilip", "--measure", str(quarter_file), "--out", str(default)]) == 0
        assert main(["bilip", "--measure", str(quarter_file), "--map", "shear_sine",
                     "--alpha", "0.5", "--eps", "0.25", "--out", str(explicit)]) == 0
        assert json.loads(default.read_text())["map"] == "shear_sine"
        assert default.read_bytes() == explicit.read_bytes()

    @pytest.mark.parametrize("command", ["energy", "compare", "bilip"])
    def test_missing_measure_or_bad_alpha_exit_3(self, three_atom_file, command):
        assert main([command]) == 3
        assert main([command, "--measure", str(three_atom_file), "--alpha", "x"]) == 3

    def test_bilip_unknown_map(self, tmp_path, three_atom_file):
        assert main(["bilip", "--measure", str(three_atom_file),
                     "--map", "nope", "--alpha", "0.5", "--eps", "0.5"]) == 3


class TestCantorMeasureFile:
    """A measure file written by ``gen`` keeps the Cantor orbits."""

    def _gen(self, tmp_path):
        path = tmp_path / "m.json"
        assert main(["gen", "--dimension", "0.75", "--depth", "3", "--out", str(path)]) == 0
        return path

    def _orbits(self, tmp_path, path):
        out = tmp_path / "cmp.json"
        assert main(["compare", "--measure", str(path), "--out", str(out)]) == 0
        return json.loads(out.read_text())["wolff_proxy"]["diagnostics"]["orbits"]

    def test_gen_then_compare_reads_orbits(self, tmp_path):
        assert self._orbits(tmp_path, self._gen(tmp_path)) == 10.0

    def test_nudged_atom_reads_every_row(self, tmp_path):
        path = self._gen(tmp_path)
        doc = json.loads(path.read_text())
        doc["atoms"][0][1] = float(np.nextafter(doc["atoms"][0][1], 1.0))
        path.write_text(json.dumps(doc))
        assert self._orbits(tmp_path, path) == 64.0

    def test_bad_cantor_key_exit_3(self, tmp_path):
        path = self._gen(tmp_path)
        doc = json.loads(path.read_text())
        doc["cantor"]["ratio"] = "quarter"
        path.write_text(json.dumps(doc))
        assert main(["compare", "--measure", str(path)]) == 3
        assert main(["energy", "--measure", str(path)]) == 3


class TestMeasureRoundTripViaCli:
    def test_csv_import(self, tmp_path):
        csv_path = tmp_path / "m.csv"
        csv_path.write_text("x1,x2,w\n0,0,1\n1,0,1\n2,0,1\n")
        out = tmp_path / "rows.csv"
        code = main(["energy", "--measure", str(csv_path), "--alpha", "0.5",
                     "--eps", "0.5", "--out", str(out)])
        assert code == 0
        assert "p_alpha" in out.read_text()


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ["gen", "--n", "abc"],
        ["energy", "--bogus"],
        ["energy", "--r-out", "2"],
        [],
    ], ids=["bad-int", "unknown-flag", "no-outer-cutoff", "no-command"])
    def test_usage_error_exit_3(self, capsys, argv):
        # Exit 2 is the size cap: a typo must not look like one.
        assert main(argv) == 3
        assert "usage:" in capsys.readouterr().err

    def test_help_exit_0(self, capsys):
        assert main(["energy", "--help"]) == 0
        assert "--eps" in capsys.readouterr().out


class TestReadme:
    def test_cli_block_parses(self):
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = text.split("\n## CLI\n", 1)[1].split("```", 2)[1]
        lines = [line.split(" #", 1)[0] for line in block.splitlines()
                 if line.startswith("rieszcap ")]
        assert len(lines) >= 8
        parser = build_parser()
        for line in lines:
            args = parser.parse_args(shlex.split(line)[1:])
            assert callable(args.fn), line
