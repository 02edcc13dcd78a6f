import argparse
import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import polyrect
from polyrect import (
    FitError, RowConfig, accepts, build, cli, count_series, counting, deserialize, genfunc,
    gf_height,
)
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


def test_count_json(capsys):
    code, out, _ = run(capsys, "count", "--b", "2", "--h", "3", "--format", "json")
    assert (code, out) == (0, '{"b":2,"count":15,"h":3}\n')


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


# sha256 of `gf --b B` output, taken before the fit moved to exactly 2n + 2
# terms from 2n + 10 fitted plus 25 checked
GF_SHA256 = {
    (1, "text"): "8326070a0b8afeb3ee55dd0ef51cd156ad5545154c65de4c871702175f66ff0c",
    (1, "json"): "aed2593f9109ffeec0712d3dcdd0030675134331a65d64c7d89beb4e8bee6a99",
    (2, "text"): "f1502eb506f6aa4eb488b38c1b4527328e1b97f9d46b255a08c377300cd0db58",
    (2, "json"): "a555ad3791a6c03ce4d61dec4ab0a1199d528ca128bdf7693baeac3c12493c3d",
    (3, "text"): "34bc273bc74afd93f98aafb26497e576f91e50ed700ac8b927321c0ba2c9b3ac",
    (3, "json"): "59495c71d3dba50cd201759b7f0ac29f481f5e69e4b98325d1dd1fd51bf23a30",
    (4, "text"): "c112328d4b0673eda92c2ad3ecafea27a0643df802153e263139eac3962c255a",
    (4, "json"): "6472d2cd776ac50394f0f34647ad222ab5d0386812ce5994be0ee4ad127fd2f0",
    (5, "text"): "9e54d9c4fd57e305f4bc3b19b9ed6a66e5d1c75b55f29209d03ea2a809348bdc",
    (5, "json"): "cb93348747a1125f93d29891592fe067f90c91331d54d86eb1a8e6e4096198e1",
    # b=6 taken before the fit moved to Berlekamp-Massey modulo primes
    (6, "text"): "75ae1ccef32eb13c3d8324c71c0ce356d72184345ba650f697b6d1eee36565ee",
    (6, "json"): "740d55a9e03173e1e115a7c401ab2664af569b806069f0ab53861cec0207687c",
    # b=7 taken while the fit still ran on the sum of the window groups
    (7, "text"): "92e3b6c155248cbf71a946706808c9d35cb7d1a4545e44f2bd9f6da4deccf484",
    (7, "json"): "866510d7d85f1284e5504de48d940c26211d24771e038b00956ade3f26836666",
}


def test_gf_matches_pinned_digests(capsys):
    for (width, fmt), digest in GF_SHA256.items():
        code, out, _ = run(capsys, "gf", "--b", str(width), "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (width, fmt)


# sha256 of stdout for series past 2K + 1 terms, taken while every term
# still came from the counting DP
SERIES_SHA256 = {
    ("series", "--b", "5", "--h-max", "400"):
        "9883bb23cbab8837310eb466c159155d106625ddad46012ed6e057296e05ecac",
    ("series", "--b", "4", "--h-max", "1000", "--format", "json"):
        "0e93b8697e9ff3f2c603c442f6d8e5035307b597a0a2c9f54ab5743e71be11dd",
    ("count", "--b", "3", "--h", "60"):
        "a44a9678bcf22390c6daeeb411f448b84c8307da5e50edb7450e5b5c148ad351",
}


def test_series_matches_pinned_digests(capsys):
    for argv, digest in SERIES_SHA256.items():
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


# sha256 of `area-series` stdout at real sizes, taken while each quotient
# row sum was still a plain sum over the row's targets, with no subtraction
AREA_SERIES_SHA256 = {
    ("--b", "5", "--h-max", "60"):
        "7cca76622678e99ab9f99416e47a2f7fe76dc822351c98b7b39b7e10af8e1721",
    ("--b", "6", "--h-max", "30", "--format", "csv"):
        "a6a9c70a0e251836e8ca3805fccace04539d378a64bcfa806d1a9dd243505ded",
}


def test_area_series_matches_pinned_digests(capsys):
    for argv, digest in AREA_SERIES_SHA256.items():
        code, out, _ = run(capsys, "area-series", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


def test_area_gf(capsys):
    code, out, _ = run(capsys, "area-gf", "--b", "2")
    assert code == 0
    assert "q^4" in out


# sha256 of `area-gf --b B --format F` output, taken before the bivariate fit
# moved to integer specialization points
AREA_GF_SHA256 = {
    (1, "text"): "6360a345263ab8a81111611d184d33993c1cee577097e34984d8314dbc938c7e",
    (1, "json"): "dc290f8f175c7eac16181672caa7bde752759b94c7ee3772d869b04b23805f4f",
    (2, "text"): "ae8b59d5baaf753804890b0cfa690181d7e3f53d51dc85e86773d632d6daad60",
    (2, "json"): "b42eb9e0e972fefb689d5c4e973f43675ff772808718fd88d40d229ef2c47ac1",
    (3, "text"): "44508d1409b98143309bdc7f2fa1d845d15e6baa702b21743f5fc814606c40e6",
    (3, "json"): "fce8299dda492854424373571e0d4d5a92b00166591f7e3292fcdaf802893379",
    (4, "text"): "fd352c9a76170bbb4ba7e25ed161ca26a3b7c3ede6b93aaaee442a54a0152e3c",
    (4, "json"): "794216b936f4b9cfa7a119a6ddf6051e208b665bb67abc0dd60070dba5e9427b",
    (5, "text"): "d4f14ff47c9958965779149c5299f8ca13863834a0d5ed24c2f9804ff86991e8",
    (5, "json"): "a1c82740ea88ba881d9b5b2a46006986acfdfb1daa86199ed07bf47bce5fc0e9",
}


def test_area_gf_matches_pinned_digests(capsys):
    for (width, fmt), digest in AREA_GF_SHA256.items():
        code, out, _ = run(capsys, "area-gf", "--b", str(width), "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (width, fmt)


def test_area_gf_width_guard(capsys):
    code, out, err = run(capsys, "area-gf", "--b", "7")
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


def test_verify_counts_only_the_heights_it_checks(monkeypatch, capsys):
    asked = []

    def spy(b, h_max):
        asked.append(h_max)
        return counting.count_area_series(b, h_max)

    monkeypatch.setattr("polyrect.cli.count_area_series", spy)
    code, out, _ = run(capsys, "verify", "--b", "4", "--h-max", "100")
    assert (code, asked) == (0, [6])
    assert out == "".join(
        [f"b=4 h={h}: pass\n" for h in range(1, 7)]
        + [f"b=4 h={h}: skipped (oracle ceiling 24 cells)\n" for h in range(7, 101)]
    )


def test_verify_reports_a_mismatch(monkeypatch, capsys):
    real = cli.brute_force_area_histogram

    def wrong_at_three(b, h):
        hist = real(b, h)
        if h == 3:
            hist[b * h] += 1
        return hist

    monkeypatch.setattr("polyrect.cli.brute_force_area_histogram", wrong_at_three)
    code, out, _ = run(capsys, "verify", "--b", "2", "--h-max", "4")
    assert code == 1
    assert out == "b=2 h=1: pass\nb=2 h=2: pass\nb=2 h=3: FAIL (automaton 15, oracle 16)\nb=2 h=4: pass\n"


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


def test_accepts_matches_the_automaton(tmp_path, capsys):
    rng = random.Random(7)
    path = tmp_path / "stack.txt"
    verdicts = set()
    for width in range(1, 7):
        a = build(width)
        for _ in range(40):
            # half walk the automaton's defined letters, half are any nonempty rows
            state, rows = 0, []
            for _ in range(rng.randint(1, 8)):
                defined = [k + 1 for k, t in enumerate(a.transitions[state]) if t >= 0]
                bits = rng.choice(defined) if rng.random() < 0.5 else rng.randrange(1, 1 << width)
                rows.append(format(bits, f"0{width}b"))
                state = max(a.transitions[state][bits - 1], 0)
            path.write_text("\n".join(rows) + "\n")
            ok = accepts(a, [RowConfig.from_string(row) for row in rows])
            verdicts.add(ok)
            want = (0, "accepted\n", "") if ok else (1, "rejected\n", "")
            assert run(capsys, "accepts", "--b", str(width), "--stack", str(path)) == want, rows
    assert verdicts == {True, False}


def test_accepts_never_builds(monkeypatch, tmp_path, capsys):
    def refused(*args, **kwargs):
        raise AssertionError("the automaton was built")

    for name in ("polyrect.automaton.build", "polyrect.automaton._explore", "polyrect.cli.build"):
        monkeypatch.setattr(name, refused)
    path = tmp_path / "stack.txt"
    # accepted; two components; a component lost
    for rows, want in (
        (FIG_ROWS, (0, "accepted\n", "")),
        (["10001"], (1, "rejected\n", "")),
        (["01000", "00010"], (1, "rejected\n", "")),
    ):
        path.write_text("\n".join(rows) + "\n")
        assert run(capsys, "accepts", "--b", "5", "--stack", str(path)) == want


def test_accepts_respects_state_ceiling(tmp_path, capsys):
    path = tmp_path / "stack.txt"
    path.write_text("111\n")
    code, out, err = run(capsys, "accepts", "--b", "3", "--stack", str(path), "--max-states", "5")
    assert (code, out) == (3, "")
    assert err == "error: width 3 projects 16 states, ceiling is 5\n"


def test_accepts_checks_the_ceiling_before_reading_the_stack(tmp_path, capsys):
    missing = str(tmp_path / "nope.txt")
    code, out, err = run(capsys, "accepts", "--b", "3", "--stack", missing, "--max-states", "5")
    assert (code, out) == (3, "")
    assert err == "error: width 3 projects 16 states, ceiling is 5\n"


def test_states_checks_the_ceiling_before_listing(monkeypatch, capsys):
    def refused(width):
        raise AssertionError("the states were listed")

    monkeypatch.setattr("polyrect.cli.enumerate_valid_states", refused)
    code, out, err = run(capsys, "states", "--b", "3", "--max-states", "5")
    assert (code, out) == (3, "")
    assert err == "error: width 3 projects 16 states, ceiling is 5\n"


def test_accepts_bad_row_is_usage_error(tmp_path, capsys):
    path = tmp_path / "stack.txt"
    path.write_text("011\n")
    with pytest.raises(SystemExit) as exc:
        main(["accepts", "--b", "2", "--stack", str(path)])
    assert exc.value.code == 2


def test_accepts_blank_line_between_rows_is_a_bad_row(tmp_path, capsys):
    # only trailing blank lines end the file; every other line is a row as
    # written, so a blank or padded one is not a 0/1 word
    path = tmp_path / "stack.txt"
    for text, row in (("1\n\n1\n", ""), ("1\n  \n1\n", "  "), ("\n1\n", ""), (" 1 \n\t1\n", " 1 ")):
        path.write_text(text)
        with pytest.raises(SystemExit) as exc:
            main(["accepts", "--b", "1", "--stack", str(path)])
        assert exc.value.code == 2
        assert capsys.readouterr() == ("", f"error: stack row {row!r} is not a 0/1 word of width 1\n")
    path.write_text("1\n1\n\n \t\n")
    assert run(capsys, "accepts", "--b", "1", "--stack", str(path)) == (0, "accepted\n", "")
    path.write_bytes(b"1\r\n1\r\n\r\n")  # a CRLF ending is no part of its row
    assert run(capsys, "accepts", "--b", "1", "--stack", str(path)) == (0, "accepted\n", "")


def test_accepts_empty_stack_file_is_usage_error(tmp_path, capsys):
    path = tmp_path / "stack.txt"
    path.write_text("\n  \n\t\n")
    with pytest.raises(SystemExit) as exc:
        main(["accepts", "--b", "2", "--stack", str(path)])
    assert exc.value.code == 2
    assert capsys.readouterr() == ("", "error: stack file contains no rows\n")


def test_accepts_missing_file_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["accepts", "--b", "2", "--stack", str(tmp_path / "nope.txt")])
    assert exc.value.code == 2


def test_accepts_non_ascii_file_is_usage_error(tmp_path, capsys):
    path = tmp_path / "stack.txt"
    path.write_bytes("01\n1\u00e9\n".encode())
    with pytest.raises(SystemExit) as exc:
        main(["accepts", "--b", "2", "--stack", str(path)])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: cannot read stack file: ")


def test_unwritable_output_is_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "gf.txt"
    code, out, err = run(capsys, "gf", "--b", "2", "--output", str(target))
    assert code == 2
    assert out == "" and not target.exists()
    assert err.startswith("error: cannot write output file: ") and err.count("\n") == 1


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("command", ["build", "export-dot", "series"])
def test_full_device_is_usage_error_and_kept(capsys, command):
    # every write fails; the device is no regular file, so it is not removed
    argv = [command, "--b", "3", "--output", "/dev/full"] + (["--h-max", "3"] if command == "series" else [])
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: cannot write output file: ") and err.count("\n") == 1
    assert os.path.exists("/dev/full")


def test_closed_stdout_is_usage_error():
    # the reader is gone before the first write, as in `polyrect series ... | true`
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {**os.environ, "PYTHONPATH": str(Path(polyrect.__file__).parents[1])}
    try:
        for args in (("series", "--b", "4", "--h-max", "300"), ("build", "--b", "3")):
            done = subprocess.run(
                [sys.executable, "-m", "polyrect.cli", *args],
                env=env, stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60,
            )
            assert done.returncode == 2, args
            assert done.stderr.startswith("error: cannot write to stdout: "), done.stderr
            assert done.stderr.count("\n") == 1
            assert "Traceback" not in done.stderr and "Exception ignored" not in done.stderr
    finally:
        os.close(write_end)


def test_internal_error_is_not_a_usage_error(monkeypatch, capsys):
    def broken(cfg):
        raise ValueError("inverse of 0 mod p")

    monkeypatch.setitem(cli._HANDLERS, "gf", broken)
    code, out, err = run(capsys, "gf", "--b", "2")
    assert code == 4
    assert out == ""
    assert err == "error: internal error: ValueError: inverse of 0 mod p\n"


def test_failed_fit_in_a_long_series_exits_one(monkeypatch, capsys):
    # K = 3 at b = 2, so a series to h = 20 fits its first 8 terms
    def refused(series, degree_bound):
        raise FitError("insufficient terms: refused")

    monkeypatch.setattr(genfunc, "fit_rational", refused)
    code, out, err = run(capsys, "series", "--b", "2", "--h-max", "20")
    assert code == 1
    assert out == ""
    assert err == "error: insufficient terms: refused\n"


def test_out_of_memory_is_a_resource_error(monkeypatch, capsys):
    def exhausted(cfg):
        raise MemoryError

    monkeypatch.setitem(cli._HANDLERS, "build", exhausted)
    code, out, err = run(capsys, "build", "--b", "2")
    assert code == 3
    assert out == ""
    assert err == "error: out of memory\n"


def test_interrupt_is_one_line(monkeypatch, capsys):
    def interrupted(ns):
        raise KeyboardInterrupt

    monkeypatch.setitem(cli._HANDLERS, "series", interrupted)
    code, out, err = run(capsys, "series", "--b", "2", "--h-max", "3")
    assert (code, out, err) == (130, "", "error: interrupted\n")


def _failing_after_one_chunk(exc, chunk):
    def chunks(a):
        yield chunk
        raise exc

    return chunks


@pytest.mark.parametrize("command, renderer, chunk", [
    ("build", "serialize_chunks", b'{"version":1'),
    ("export-dot", "export_dot_chunks", "digraph automaton {\n"),
])
@pytest.mark.parametrize("exc, status, message", [
    (MemoryError(), 3, "error: out of memory\n"),
    (ValueError("bad row"), 4, "error: internal error: ValueError: bad row\n"),
    (KeyboardInterrupt(), 130, "error: interrupted\n"),
])
def test_failure_while_streaming_removes_the_output(
    monkeypatch, tmp_path, capsys, command, renderer, chunk, exc, status, message,
):
    monkeypatch.setattr(cli, renderer, _failing_after_one_chunk(exc, chunk))
    target = tmp_path / "out"
    code, out, err = run(capsys, command, "--b", "3", "--output", str(target))
    assert (code, out, err) == (status, "", message)
    assert not target.exists()
    # stdout keeps what was written before the failure
    code, out, err = run(capsys, command, "--b", "3")
    assert (code, out, err) == (status, chunk if isinstance(chunk, str) else chunk.decode(), message)


def test_width_out_of_range_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["states", "--b", "0"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, message", [
    (["count", "--b", "2", "--h", "-1"], "heights must be nonnegative"),
    (["series", "--b", "2", "--h-max", "-1"], "heights must be nonnegative"),
    (["states", "--b", "2", "--max-states", "0"], "--max-states must be positive"),
])
def test_bad_height_or_ceiling_is_usage_error(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_missing_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["count", "--b", "2"])
    assert exc.value.code == 2
    capsys.readouterr()


def _usage_output(capsys, parser, argv):
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(argv)
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


@pytest.mark.parametrize("command", sorted(cli._HANDLERS))
def test_parser_builds_only_the_named_command(command, capsys):
    # main builds only the subcommand its argv names; help and usage errors
    # must read as with every subcommand built
    complete = cli._build_parser()
    for argv in (
        [command, "--help"], [command, "-h"], [command], [command, "--b"],
        [command, "--b", "2", "stray"], ["--b", "2", command],
        [command, "--b", "x"], [command, "--b", "2", "--format", "xml"],
        [command, "--b", "2", "--b"], [command, "--b", "2", "--", "stray"],
        ["--help"], ["nope"], [],
    ):
        want = _usage_output(capsys, complete, argv)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out = capsys.readouterr()
        assert (exc.value.code, out.out, out.err) == want, argv


def test_valid_command_builds_one_parser(monkeypatch, capsys):
    built = []
    real = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        real(self, *args, **kwargs)
        built.append(self.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert run(capsys, "area-gf", "--b", "2")[0] == 0
    assert built == ["polyrect area-gf"]


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


def test_flag_overrides_a_bad_env_ceiling(monkeypatch, capsys):
    monkeypatch.setenv("POLYRECT_MAX_STATES", "abc")
    code, out, err = run(capsys, "count", "--b", "3", "--h", "2", "--max-states", "50")
    assert (code, out, err) == (0, "15\n", "")


def test_help_never_reads_the_env_ceiling(monkeypatch, capsys):
    monkeypatch.setenv("POLYRECT_MAX_STATES", "abc")
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr()
    assert out.out.startswith("usage: polyrect") and out.err == ""


@pytest.mark.parametrize("value", ["0", "-5"])
def test_nonpositive_env_ceiling_is_usage_error(monkeypatch, capsys, value):
    monkeypatch.setenv("POLYRECT_MAX_STATES", value)
    with pytest.raises(SystemExit) as exc:
        main(["states", "--b", "2"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: POLYRECT_MAX_STATES must be positive, got {value!r}\n"


def test_area_gf_respects_state_ceiling(capsys):
    # the counting commands build no automaton, but stop at the same widths
    for argv in (
        ["count", "--h", "2"],
        ["series", "--h-max", "2"],
        ["area-series", "--h-max", "2"],
        ["gf"],
        ["area-gf"],
        ["verify", "--h-max", "2"],
    ):
        code, out, err = run(capsys, *argv, "--b", "3", "--max-states", "5")
        assert code == 3, argv
        assert out == "", argv
        assert err == "error: width 3 projects 16 states, ceiling is 5\n", argv


def test_failed_lumping_is_an_internal_error(monkeypatch, capsys):
    def merged(width):
        # every word in one class: the rows disagree
        for _, row in real(width):
            yield 0, row

    real = counting._word_rows
    monkeypatch.setattr(counting, "_word_rows", merged)
    code, out, err = run(capsys, "series", "--b", "3", "--h-max", "2")
    assert code == 4
    assert out == ""
    assert err.startswith("error: internal error: ValueError: class 0 is not a lumping")
    assert err.count("\n") == 1


def test_area_slot_overflow_is_an_internal_error(monkeypatch, capsys):
    # one-byte slots cannot hold the area counts at b = 5, h = 20, nor those
    # of A_5's fit: the carries lower each overflowing polynomial's
    # coefficient sum below its count
    monkeypatch.setattr(counting, "_area_slot_bytes", lambda bits: 1)
    with pytest.raises(ValueError, match="slot overflowed"):
        counting.count_area_series(5, 20)
    for argv in (["area-series", "--h-max", "20"], ["area-gf"]):
        code, out, err = run(capsys, *argv, "--b", "5")
        assert code == 4, argv
        assert out == "", argv
        assert err.startswith("error: internal error: ValueError: an area polynomial does not sum")
        assert err.count("\n") == 1, argv
        assert "Traceback" not in err, argv


def test_counting_commands_never_build(monkeypatch, capsys):
    # the automaton stays the paper's artifact, but counting and fitting
    # run on the word quotients alone
    def refused(*args, **kwargs):
        raise AssertionError("the automaton was built")

    for name in ("polyrect.automaton.build", "polyrect.automaton._explore", "polyrect.cli.build"):
        monkeypatch.setattr(name, refused)
    assert count_series(5, 30).counts[30] > 0
    assert gf_height(5).degrees()[2] == 49
    for argv in (["series", "--h-max", "30"], ["gf"]):
        code, out, err = run(capsys, *argv, "--b", "5")
        assert (code, err) == (0, ""), argv
        assert out, argv


def test_byte_identical_reruns(capsys):
    first = run(capsys, "series", "--b", "4", "--h-max", "12", "--format", "json")
    second = run(capsys, "series", "--b", "4", "--h-max", "12", "--format", "json")
    assert first == second
    third = run(capsys, "export-dot", "--b", "3")
    fourth = run(capsys, "export-dot", "--b", "3")
    assert third == fourth


def test_cli_import_loads_no_fractions_or_decimal():
    # the package computes in ints only, and neither module is paid for at startup
    code = "import sys, polyrect.cli; print(sorted({'fractions', 'decimal'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(Path(polyrect.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout == "[]\n"


def _loaded_by_cli_import(names):
    """Which of names `import polyrect.cli` loads; -S keeps site's own imports
    (typing, on some installs) out of the check."""
    code = f"import sys, polyrect.cli; print(sorted({set(names)!r} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(Path(polyrect.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return done.stdout


def test_cli_import_loads_no_dataclasses_inspect_or_typing():
    # the records are plain classes, so no command pays for these at startup
    assert _loaded_by_cli_import({"dataclasses", "inspect", "typing"}) == "[]\n"


def test_cli_import_loads_no_csv():
    # the CSV output joins header words and ints, which never need quoting
    assert _loaded_by_cli_import({"csv"}) == "[]\n"
