"""CLI smoke tests for every ``python -m repro lab`` subcommand."""

import json

import pytest

from repro.__main__ import main

SPEC = "E6-order-dmam"


def _run(tmp_path, *extra):
    return main(["lab", "run", "--spec", SPEC,
                 "--store", str(tmp_path), *extra])


class TestLabRun:
    def test_run_and_resume(self, tmp_path, capsys):
        assert _run(tmp_path) == 0
        out = capsys.readouterr().out
        assert SPEC in out and "ran" in out
        assert _run(tmp_path) == 0
        out = capsys.readouterr().out
        assert "0 ran" in out

    def test_run_json_summary(self, tmp_path, capsys):
        assert _run(tmp_path, "--json") == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["specs"][0]["spec"] == SPEC
        assert summary["ran"] >= 1
        assert summary["store"] == str(tmp_path)

    def test_run_quick_only(self, tmp_path, capsys):
        assert _run(tmp_path, "--quick", "--json") == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["specs"][0]["cells"] == 1


class TestLabCheck:
    def test_check_passes_on_fresh_baseline(self, tmp_path, capsys):
        assert _run(tmp_path) == 0
        capsys.readouterr()
        assert main(["lab", "check", "--spec", SPEC,
                     "--store", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "overall: OK" in out

    def test_check_json_report(self, tmp_path, capsys):
        assert _run(tmp_path) == 0
        capsys.readouterr()
        assert main(["lab", "check", "--spec", SPEC,
                     "--store", str(tmp_path), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True
        assert report["specs"][0]["spec"] == SPEC

    def test_check_fails_without_baseline(self, tmp_path, capsys):
        assert main(["lab", "check", "--spec", SPEC,
                     "--store", str(tmp_path)]) == 1
        assert "missing" in capsys.readouterr().out

    def test_check_fails_on_drift(self, tmp_path, capsys):
        assert _run(tmp_path) == 0
        path = next(tmp_path.glob(f"{SPEC}-*.jsonl"))
        records = [json.loads(line)
                   for line in path.read_text().splitlines()]
        for record in records:
            record["bits"] = 1
        path.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        capsys.readouterr()
        assert main(["lab", "check", "--spec", SPEC,
                     "--store", str(tmp_path)]) == 1
        assert "drift" in capsys.readouterr().out


class TestLabReport:
    def test_report_writes_file(self, tmp_path, capsys):
        assert _run(tmp_path) == 0
        assert main(["lab", "report", "--spec", SPEC,
                     "--store", str(tmp_path)]) == 0
        assert (tmp_path / "LAB_REPORT.md").exists()

    def test_report_stdout(self, tmp_path, capsys):
        assert _run(tmp_path) == 0
        capsys.readouterr()
        assert main(["lab", "report", "--spec", SPEC,
                     "--store", str(tmp_path), "--stdout"]) == 0
        assert "# Lab report" in capsys.readouterr().out

    def test_report_check_mode(self, tmp_path, capsys):
        assert _run(tmp_path) == 0
        out_file = tmp_path / "custom.md"
        assert main(["lab", "report", "--spec", SPEC,
                     "--store", str(tmp_path),
                     "--output", str(out_file)]) == 0
        assert main(["lab", "report", "--spec", SPEC,
                     "--store", str(tmp_path),
                     "--output", str(out_file), "--check"]) == 0
        out_file.write_text("stale\n")
        assert main(["lab", "report", "--spec", SPEC,
                     "--store", str(tmp_path),
                     "--output", str(out_file), "--check"]) == 1


class TestParsing:
    def test_lab_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main(["lab"])

    def test_unknown_spec_raises(self, tmp_path):
        with pytest.raises(KeyError):
            main(["lab", "run", "--spec", "nonesuch",
                  "--store", str(tmp_path)])
