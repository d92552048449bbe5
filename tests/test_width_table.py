import importlib.util
import re
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "width_table.py"


def test_width_table_prints_one_timed_row_per_cell(capsys):
    spec = importlib.util.spec_from_file_location("width_table", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.main(widths=(2,), repeats=1, iterations=50) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["| cell | K = 2 |", "|---|---|"]
    assert [line.split(" | ")[0] for line in lines[2:]] == [
        "| " + cell[0] for cell in module.CELLS]
    for line in lines[2:]:
        assert float(re.fullmatch(r"\| .+ \| (\S+) \|", line).group(1)) > 0
