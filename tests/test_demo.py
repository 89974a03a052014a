import importlib.util
import json
from pathlib import Path

DEMO = Path(__file__).resolve().parents[1] / "scripts" / "synthetic_bubble_demo.py"


def test_synthetic_bubble_demo_writes_three_analysis_reports(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("synthetic_bubble_demo", DEMO)
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    demo.main(["--out-dir", str(tmp_path)])
    reports = sorted(tmp_path.glob("analysis_*.json"))
    assert len(reports) == 3
    assert all(json.loads(p.read_text(encoding="utf-8"))["meta"]["kind"] == "analysis"
               for p in reports)
    assert (tmp_path / "bubble_panel.csv").is_file()
    assert "tail exponent dip" in capsys.readouterr().out
