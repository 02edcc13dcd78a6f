import json

import pytest

from polyrect import build, deserialize
from polyrect.cli import main

FIG_ROWS = [
    "01111",
    "00001",
    "10101",
    "10101",
    "11101",
    "01001",
    "11111",
    "10101",
    "11101",
]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_states_text(capsys):
    code, out, err = run(capsys, "states", "--b", "2")
    assert code == 0
    assert out == "formula: 6\nenumerated: 6\nreachable: 6\n"


def test_states_json(capsys):
    code, out, _ = run(capsys, "states", "--b", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc == {"b": 3, "formula": 16, "enumerated": 16, "reachable": 16}


def test_count(capsys):
    code, out, _ = run(capsys, "count", "--b", "4", "--h", "5")
    assert code == 0
    assert out == "86995\n"


def test_count_csv(capsys):
    code, out, _ = run(capsys, "count", "--b", "2", "--h", "3", "--format", "csv")
    assert (code, out) == (0, "h,count\n3,15\n")


def test_series_csv(capsys):
    code, out, _ = run(capsys, "series", "--b", "2", "--h-max", "5", "--format", "csv")
    assert code == 0
    assert out == "h,count\n0,1\n1,1\n2,5\n3,15\n4,39\n5,97\n"


def test_series_json(capsys):
    code, out, _ = run(capsys, "series", "--b", "2", "--h-max", "4", "--format", "json")
    assert json.loads(out)["counts"] == [1, 1, 5, 15, 39]


def test_series_text(capsys):
    code, out, _ = run(capsys, "series", "--b", "1", "--h-max", "2")
    assert out == "0\t1\n1\t1\n2\t1\n"


def test_area_series_csv(capsys):
    code, out, _ = run(capsys, "area-series", "--b", "2", "--h-max", "2", "--format", "csv")
    assert out == "h,n,coefficient\n0,0,1\n1,2,1\n2,3,4\n2,4,1\n"


def test_area_series_text(capsys):
    code, out, _ = run(capsys, "area-series", "--b", "2", "--h-max", "2")
    assert out == "0\t1\n1\tq^2\n2\t4*q^3 + q^4\n"


def test_area_series_json(capsys):
    code, out, _ = run(capsys, "area-series", "--b", "2", "--h-max", "2", "--format", "json")
    doc = json.loads(out)
    assert doc["area_counts"] == [[[0, 1]], [[2, 1]], [[3, 4], [4, 1]]]


def test_gf_text(capsys):
    code, out, _ = run(capsys, "gf", "--b", "2")
    assert code == 0
    assert out == (
        "numerator: 1 - 2*x + 3*x^2 + 2*x^3\n"
        "denominator: 1 - 3*x + x^2 + x^3\n"
        "degrees: numerator 3, denominator 3, max 3\n"
    )


def test_gf_json(capsys):
    code, out, _ = run(capsys, "gf", "--b", "2", "--format", "json")
    doc = json.loads(out)
    assert doc["num"] == [1, -2, 3, 2]
    assert doc["den"] == [1, -3, 1, 1]
    assert doc["degrees"] == {"num": 3, "den": 3, "max": 3}


def test_area_gf(capsys):
    code, out, _ = run(capsys, "area-gf", "--b", "2")
    assert code == 0
    assert "q^4" in out


def test_area_gf_width_guard(capsys):
    code, out, err = run(capsys, "area-gf", "--b", "5")
    assert code == 3
    assert not out and "width" in err


def test_export_dot_to_file(tmp_path, capsys):
    path = tmp_path / "a.dot"
    code, out, _ = run(capsys, "export-dot", "--b", "2", "--output", str(path))
    assert code == 0 and not out
    text = path.read_text()
    assert text.startswith("digraph automaton {") and "doublecircle" in text


def test_build_round_trips(tmp_path, capsys):
    path = tmp_path / "a.json"
    code, out, _ = run(capsys, "build", "--b", "3", "--output", str(path))
    assert code == 0
    assert deserialize(path.read_bytes().strip()) == build(3)


def test_verify_passes(capsys):
    code, out, _ = run(capsys, "verify", "--b", "2", "--h-max", "4")
    assert code == 0
    assert out.splitlines() == [f"b=2 h={h}: pass" for h in range(1, 5)]


def test_verify_skips_beyond_oracle_ceiling(capsys):
    code, out, _ = run(capsys, "verify", "--b", "6", "--h-max", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[3] == "b=6 h=4: pass"
    assert lines[4].startswith("b=6 h=5: skipped")


def test_accepts_figure_stack(tmp_path, capsys):
    path = tmp_path / "stack.txt"
    path.write_text("\n".join(FIG_ROWS) + "\n")
    code, out, _ = run(capsys, "accepts", "--b", "5", "--stack", str(path))
    assert (code, out) == (0, "accepted\n")


def test_accepts_rejects_lost_component(tmp_path, capsys):
    path = tmp_path / "stack.txt"
    path.write_text("01\n10\n")
    code, out, _ = run(capsys, "accepts", "--b", "2", "--stack", str(path))
    assert (code, out) == (1, "rejected\n")


def test_accepts_rejects_empty_row(tmp_path, capsys):
    path = tmp_path / "stack.txt"
    path.write_text("11\n00\n11\n")
    code, out, _ = run(capsys, "accepts", "--b", "2", "--stack", str(path))
    assert (code, out) == (1, "rejected\n")


def test_accepts_bad_row_is_usage_error(tmp_path, capsys):
    path = tmp_path / "stack.txt"
    path.write_text("011\n")
    with pytest.raises(SystemExit) as exc:
        main(["accepts", "--b", "2", "--stack", str(path)])
    assert exc.value.code == 2


def test_accepts_missing_file_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["accepts", "--b", "2", "--stack", str(tmp_path / "nope.txt")])
    assert exc.value.code == 2


def test_width_out_of_range_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["states", "--b", "0"])
    assert exc.value.code == 2


def test_missing_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["count", "--b", "2"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_env_ceiling(monkeypatch, capsys):
    monkeypatch.setenv("POLYRECT_MAX_STATES", "5")
    code, out, err = run(capsys, "series", "--b", "3", "--h-max", "2")
    assert code == 3
    assert "ceiling" in err
    # explicit flag overrides the environment
    code, out, _ = run(capsys, "series", "--b", "3", "--h-max", "2",
                       "--max-states", "100")
    assert code == 0


def test_bad_env_ceiling_is_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("POLYRECT_MAX_STATES", "abc")
    with pytest.raises(SystemExit) as exc:
        main(["states", "--b", "2"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: ") and out.err.count("\n") == 1


def test_area_gf_respects_state_ceiling(capsys):
    code, out, err = run(capsys, "area-gf", "--b", "3", "--max-states", "5")
    assert code == 3
    assert out == ""
    assert "ceiling" in err


def test_byte_identical_reruns(capsys):
    first = run(capsys, "series", "--b", "4", "--h-max", "12", "--format", "json")
    second = run(capsys, "series", "--b", "4", "--h-max", "12", "--format", "json")
    assert first == second
    third = run(capsys, "export-dot", "--b", "3")
    fourth = run(capsys, "export-dot", "--b", "3")
    assert third == fourth
