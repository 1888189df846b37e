"""End-to-end tests of the ``repro lint`` ``--static`` and ``--code`` flags."""

import json

from repro.cli import main


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestLintFlags:
    def test_lint_static_adds_analyzer_report(self, capsys):
        code, out, _ = run_cli(["lint", "alexnet", "--static"], capsys)
        assert code == 0
        assert "2 graph(s) checked" in out

    def test_lint_code_alone(self, capsys):
        code, out, _ = run_cli(["lint", "--code"], capsys)
        assert code == 0
        assert "determinism lint:" in out
        assert "0 blocking" in out

    def test_lint_code_json(self, capsys):
        code, out, _ = run_cli(["lint", "--code", "--json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["summary"]["blocking"] == 0

    def test_lint_without_targets_still_errors(self, capsys):
        code, _, err = run_cli(["lint"], capsys)
        assert code == 1
        assert "nothing to lint" in err
