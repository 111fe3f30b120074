"""CLI integration: exit codes, formats, determinism."""

import json

import pytest

from bchkit.cli import main


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "heis.json").write_text(json.dumps({
        "dim": 3, "basis_names": ["P", "Q", "I"],
        "f": [{"a": 0, "b": 1, "c": 2, "v": "1"}],
    }))
    (tmp_path / "affine.json").write_text(json.dumps({
        "dim": 2, "f": [{"a": 0, "b": 1, "c": 1, "v": "1"}],
    }))
    (tmp_path / "bad.json").write_text(json.dumps({
        "dim": 3, "f": [{"a": 0, "b": 1, "c": 0, "v": "1"},
                        {"a": 1, "b": 2, "c": 1, "v": "1"},
                        {"a": 2, "b": 0, "c": 2, "v": "1"}],
    }))
    (tmp_path / "corrupt.json").write_text("this is not json")
    (tmp_path / "e0.json").write_text(json.dumps({"coords": ["1", "0", "0"]}))
    (tmp_path / "e1.json").write_text(json.dumps({"coords": ["0", "1", "0"]}))
    (tmp_path / "a0.json").write_text(json.dumps({"coords": ["1", "0"]}))
    (tmp_path / "a1.json").write_text(json.dumps({"coords": ["0", "1"]}))
    (tmp_path / "a0small.json").write_text(json.dumps({"coords": ["1/8", "0"]}))
    (tmp_path / "a1small.json").write_text(json.dumps({"coords": ["0", "1/8"]}))
    return tmp_path


# `check` stdout for each catalog entry's documented pair: (exit code, JSON line)
CATALOG_CHECK = {
    "abelian3": (0, '{"S_dim": null, "derived_abelian": true, "derived_dim": 0, '
                    '"nilpotent": {"class": 1}, "rank_one": null, "tag": "Commuting", '
                    '"u": null, "v": null}'),
    "heisenberg": (0, '{"S_dim": null, "derived_abelian": true, "derived_dim": 1, '
                      '"nilpotent": {"class": 2}, "rank_one": {"n": ["0", "0", "1"], '
                      '"omega": [["0", "1", "0"], ["-1", "0", "0"], ["0", "0", "0"]]}, '
                      '"tag": "CentralBracket", "u": null, "v": null}'),
    "affine": (0, '{"S_dim": null, "derived_abelian": true, "derived_dim": 1, '
                  '"nilpotent": null, "rank_one": {"n": ["0", "1"], '
                  '"omega": [["0", "1"], ["-1", "0"]]}, '
                  '"tag": "SimultaneousEigenvector", "u": "0", "v": "1"}'),
    "uvc": (0, '{"S_dim": null, "derived_abelian": true, "derived_dim": 1, '
               '"nilpotent": null, "rank_one": {"n": ["1", "-2/3", "4"], '
               '"omega": [["0", "1/2", "0"], ["-1/2", "0", "0"], ["0", "0", "0"]]}, '
               '"tag": "SimultaneousEigenvector", "u": "1/2", "v": "-1/3"}'),
    "two_scale": (0, '{"S_dim": 2, "derived_abelian": true, "derived_dim": 2, '
                     '"nilpotent": null, "rank_one": null, "tag": "OperatorCommuting", '
                     '"u": null, "v": null}'),
    "sl2": (3, '{"S_dim": 3, "derived_abelian": false, "derived_dim": 3, '
               '"nilpotent": null, "rank_one": null, "tag": "NoClosedForm", '
               '"u": null, "v": null}'),
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_heisenberg(self, workdir, capsys):
        code, out, _ = run(capsys, "check",
                           "--algebra", str(workdir / "heis.json"),
                           "--x", str(workdir / "e0.json"),
                           "--y", str(workdir / "e1.json"))
        assert code == 0
        report = json.loads(out)
        assert report["tag"] == "CentralBracket"
        assert report["derived_dim"] == 1
        assert report["nilpotent"] == {"class": 2}
        assert report["rank_one"]["n"] == ["0", "0", "1"]

    def test_no_closed_form_exit_3(self, workdir, capsys):
        code, out, _ = run(capsys, "check", "--algebra", "sl2",
                           "--x", str(workdir / "e0.json"),
                           "--y", str(workdir / "e1.json"))
        assert code == 3
        assert json.loads(out)["tag"] == "NoClosedForm"

    def test_corrupt_json_exit_1(self, workdir, capsys):
        code, _, err = run(capsys, "check",
                           "--algebra", str(workdir / "corrupt.json"),
                           "--x", str(workdir / "e0.json"),
                           "--y", str(workdir / "e1.json"))
        assert code == 1 and "input error" in err

    def test_jacobi_violation_exit_2(self, workdir, capsys):
        code, _, err = run(capsys, "check",
                           "--algebra", str(workdir / "bad.json"),
                           "--x", str(workdir / "e0.json"),
                           "--y", str(workdir / "e1.json"))
        assert code == 2
        detail = json.loads(err)
        assert detail["error"] == "JacobiViolation"
        assert detail["indices"] == [0, 1, 2, 0]

    def test_missing_file_exit_1(self, workdir, capsys):
        code, _, _ = run(capsys, "check", "--algebra", "nonexistent",
                         "--x", str(workdir / "e0.json"),
                         "--y", str(workdir / "e1.json"))
        assert code == 1

    def test_catalog_dir_override(self, workdir, capsys, monkeypatch):
        override = workdir / "catalog"
        override.mkdir()
        (override / "mystery.json").write_text(json.dumps({
            "dim": 3, "f": [{"a": 0, "b": 1, "c": 2, "v": "1"}],
        }))
        monkeypatch.setenv("BCHKIT_CATALOG_DIR", str(override))
        code, out, _ = run(capsys, "check", "--algebra", "mystery",
                           "--x", str(workdir / "e0.json"),
                           "--y", str(workdir / "e1.json"))
        assert code == 0
        assert json.loads(out)["tag"] == "CentralBracket"

    def test_catalog_documented_pairs_pinned(self, tmp_path, capsys):
        from bchkit.oracle import builtin_catalog
        entries = builtin_catalog()
        assert sorted(e.name for e in entries) == sorted(CATALOG_CHECK)
        for entry in entries:
            (x, y, _), = entry.pairs
            for name, elem in (("x", x), ("y", y)):
                (tmp_path / f"{name}.json").write_text(
                    json.dumps({"coords": [str(c) for c in elem.coords]}))
            code, out, _ = run(capsys, "check", "--algebra", entry.name,
                               "--x", str(tmp_path / "x.json"),
                               "--y", str(tmp_path / "y.json"))
            assert (code, out) == (CATALOG_CHECK[entry.name][0],
                                   CATALOG_CHECK[entry.name][1] + "\n"), entry.name


class TestBch:
    def test_heisenberg_exact(self, workdir, capsys):
        code, out, _ = run(capsys, "bch",
                           "--algebra", str(workdir / "heis.json"),
                           "--x", str(workdir / "e0.json"),
                           "--y", str(workdir / "e1.json"))
        assert code == 0
        res = json.loads(out)
        assert res["method"] == "Central" and res["exact"] is True
        assert res["z"] == ["1", "1", "1/2"]

    def test_verify_pass(self, workdir, capsys):
        code, out, _ = run(capsys, "bch",
                           "--algebra", str(workdir / "affine.json"),
                           "--x", str(workdir / "a0small.json"),
                           "--y", str(workdir / "a1small.json"),
                           "--verify", "--degree", "8", "--tolerance", "1e-8")
        assert code == 0
        assert json.loads(out)["verify"]["difference_sup_norm"] < 1e-8

    def test_verify_fail_exit_4(self, workdir, capsys):
        # unit coordinates put the degree-8 truncation far above 1e-12
        code, out, err = run(capsys, "bch",
                             "--algebra", str(workdir / "affine.json"),
                             "--x", str(workdir / "a0.json"),
                             "--y", str(workdir / "a1.json"),
                             "--verify", "--degree", "8", "--tolerance", "1e-12")
        assert code == 4
        assert "verification failed" in err

    def test_no_closed_form_exit_3(self, workdir, capsys):
        code, out, _ = run(capsys, "bch", "--algebra", "sl2",
                           "--x", str(workdir / "e0.json"),
                           "--y", str(workdir / "e1.json"))
        assert code == 3
        assert json.loads(out)["error"] == "NoClosedForm"


class TestOracle:
    def test_series_only(self, workdir, capsys):
        code, out, _ = run(capsys, "oracle",
                           "--algebra", str(workdir / "heis.json"),
                           "--x", str(workdir / "e0.json"),
                           "--y", str(workdir / "e1.json"),
                           "--degree", "4")
        assert code == 0
        res = json.loads(out)
        assert res["integral_series"] == ["1", "1", "1/2"]
        assert res["matrix"] is None

    def test_with_rep(self, workdir, capsys):
        from bchkit.oracle import catalog_entry
        rep_path = workdir / "heis_rep.json"
        rep_path.write_text(json.dumps(catalog_entry("heisenberg").rep.to_json_dict()))
        code, out, _ = run(capsys, "oracle",
                           "--algebra", str(workdir / "heis.json"),
                           "--x", str(workdir / "e0.json"),
                           "--y", str(workdir / "e1.json"),
                           "--degree", "6", "--rep", str(rep_path))
        assert code == 0
        res = json.loads(out)
        assert res["difference_sup_norm"] < 1e-12

    @pytest.mark.parametrize("images", [[], [1.0, 2.0, 3.0]])
    def test_malformed_rep_exit_1(self, workdir, capsys, images):
        rep_path = workdir / "bad_rep.json"
        rep_path.write_text(json.dumps({"dim_rep": 3, "basis_images": images}))
        code, _, err = run(capsys, "oracle",
                           "--algebra", str(workdir / "heis.json"),
                           "--x", str(workdir / "e0.json"),
                           "--y", str(workdir / "e1.json"),
                           "--degree", "4", "--rep", str(rep_path))
        assert code == 1
        assert err.startswith("input error:")


class TestF:
    def test_value_json(self, capsys):
        code, out, _ = run(capsys, "f", "--u", "1", "--v", "-1")
        assert code == 0
        res = json.loads(out)
        assert abs(res["f"] - 0.46211715726000974) < 1e-15

    def test_series_tsv(self, capsys):
        code, out, _ = run(capsys, "f", "--series", "2")
        assert code == 0
        rows = {}
        for line in out.strip().splitlines():
            i, j, c = line.split("\t")
            rows[(int(i), int(j))] = c
        assert rows[(0, 0)] == "1/2"
        assert rows[(1, 0)] == "1/12"
        assert rows[(1, 1)] == "1/24"
        assert rows[(2, 0)] == "0"

    def test_missing_args_exit_1(self, capsys):
        code, _, err = run(capsys, "f")
        assert code == 1 and "requires" in err

    def test_human_output(self, capsys):
        code, out, _ = run(capsys, "f", "--u", "0", "--v", "0",
                           "--output", "human")
        assert code == 0 and "f: 0.5" in out


class TestFuzz:
    def test_deterministic_and_passing(self, capsys):
        args = ["fuzz", "--seed", "42", "--n", "6", "--slope-every", "3"]
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2  # byte-identical
        report = json.loads(out1)
        assert report["pass"] is True
        for family in ("rank_one", "case1", "catalog"):
            assert report["families"][family]["max_error"] < 1e-8

    def test_injected_bug_caught(self, capsys):
        code, out, _ = run(capsys, "fuzz", "--seed", "42", "--n", "4",
                           "--families", "rank_one,case1", "--inject-bug")
        assert code == 4
        report = json.loads(out)
        assert report["pass"] is False and report["violations"]

    def test_n_zero_vacuous(self, capsys):
        code, out, err = run(capsys, "fuzz", "--seed", "1", "--n", "0")
        assert code == 0
        assert json.loads(out)["warning"].startswith("n = 0")
        assert "vacuous" in err

    def test_rank_one_full_run(self, capsys):
        code, out, _ = run(capsys, "fuzz", "--seed", "42", "--n", "200",
                           "--families", "rank_one")
        assert code == 0
        report = json.loads(out)
        stats = report["families"]["rank_one"]
        assert stats["max_error"] < 1e-8
        assert stats["slopes_measured"] > 0
        assert stats["min_slope"] > 8.5
