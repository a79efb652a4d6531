import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from unilap.bounds import ceil_div, domination_number
from unilap import bounds, charpoly, graphs, harness, spectra
from unilap.cli import main
from unilap.errors import InternalConsistencyError, InvalidParameterError
from unilap.graphs import (
    CompassParams,
    Graph,
    bfs_distances,
    diameter_and_path,
    make_compass,
    make_cycle,
    make_lollipop,
    read_edge_list,
    write_edge_list,
)
from unilap.harness import (
    CSV_COLUMNS,
    SUITES,
    check_tree_chain,
    compass_params_for_n,
    random_tree,
    random_unicyclic,
    run_suite,
    sweep,
    write_csv,
)
from unilap.spectra import count_interval
import random


class TestRandomCorpora:
    def test_random_tree_shape(self):
        rng = random.Random(0)
        for n in (1, 2, 5, 12):
            g = random_tree(rng, n)
            assert g.n == n and g.m == n - 1 and g.is_connected()

    def test_random_unicyclic_shape(self):
        rng = random.Random(0)
        for _ in range(10):
            g = random_unicyclic(rng, 8)
            assert g.m == g.n and g.is_connected()

    @pytest.mark.parametrize("n", [1, 2])
    def test_random_unicyclic_rejects_too_few_vertices(self, n):
        # a tree on at most 2 vertices has no non-edge to add; the bounded
        # rng turns a search for one into a failure instead of a hang
        class Bounded(random.Random):
            draws = 0

            def randrange(self, *args):
                self.draws += 1
                assert self.draws < 100, "searching for a non-edge"
                return super().randrange(*args)

        with pytest.raises(InvalidParameterError, match="n >= 3"):
            random_unicyclic(Bounded(0), n)


class TestSuites:
    @pytest.mark.parametrize(
        "name,max_n",
        [
            ("paths", 24),
            ("cycles", 24),
            ("lollipops", 14),
            ("compasses", 12),
            ("witnesses", 18),
            ("charpoly", 7),
            ("exhaustive", 7),
        ],
    )
    def test_suite_passes_at_reduced_size(self, name, max_n):
        report = run_suite(name, max_n=max_n)
        assert report.suite == name
        assert report.ok, report.failures[:5]
        assert report.checked > 0
        assert report.seconds >= 0

    @pytest.mark.parametrize("name", ["main_bound", "refined_bound", "hedetniemi", "chain"])
    def test_exhaustive_reports_every_false_verdict_by_name(self, monkeypatch, name):
        original = harness.analyze

        def one_false(g):
            report = original(g)
            report.verdicts[name] = False
            return report

        monkeypatch.setattr(harness, "analyze", one_false)
        report = run_suite("exhaustive", max_n=4)
        assert report.checked == 3  # C3, C4 and the triangle with a pendant
        assert [f[:2] for f in report.failures] == [(name, 3), (name, 4), (name, 4)]
        assert all(f[2] for f in report.failures)  # each carries its edge list

    def test_inequalities_suite_smoke(self):
        # full inner sample counts; keep graph sizes small for speed
        report = run_suite("inequalities", max_n=10)
        assert report.ok, report.failures[:5]

    def test_tree_chain_on_large_trees(self):
        # gamma comes from the linear tree DP, so trees past n = 32 are checked
        report = check_tree_chain(max_n=200)
        assert report.ok, report.failures[:5]

    def test_tree_chain_strips_each_tree_once(self, monkeypatch):
        calls = []
        strip = graphs._cycle_forest

        def counted(g, *left):
            calls.append(g.n)
            return strip(g, *left)

        for module in (graphs, spectra, charpoly):
            monkeypatch.setattr(module, "_cycle_forest", counted)
        report = check_tree_chain(count=50, max_n=20, seed=3)
        assert report.checked == 50 and len(calls) == 50

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_tree_chain_matches_the_public_route(self, seed):
        # the same corpus, each tree measured by one fold of one strip and
        # by three separate public calls, its diameter also by BFS
        rng = random.Random(seed)
        want = []
        for i in range(100):
            n = rng.randrange(2, 40 + 1)
            g = random_tree(rng, n)
            d, _ = diameter_and_path(g)
            c = count_interval(g, 0, 1).count
            gamma = domination_number(g)
            count01, _, strip_gamma, measured, _ = graphs._fold_at_one(
                g, graphs._connected_strip(g)
            )
            assert (measured, count01, strip_gamma) == (d, c, gamma)
            assert max(max(bfs_distances(g, v)) for v in range(g.n)) == d
            if not ceil_div(d + 1, 3) <= c <= gamma:
                want.append((i, n))
        assert check_tree_chain(count=100, max_n=40, seed=seed).failures == want

    def test_unknown_suite(self):
        with pytest.raises(InvalidParameterError):
            run_suite("nope")

    @pytest.mark.parametrize("max_n", [0, -3])
    def test_rejects_max_n_below_one(self, max_n):
        with pytest.raises(InvalidParameterError):
            run_suite("paths", max_n=max_n)

    def test_max_n_one_is_honoured(self):
        assert run_suite("paths", max_n=1).checked == 1

    @pytest.mark.parametrize("max_n,checked", [(3, 1), (8, 6)])
    def test_cycles_count_the_cases_run(self, max_n, checked):
        assert run_suite("cycles", max_n=max_n).checked == checked

    @pytest.mark.parametrize("max_n,checked", [(4, 48), (7, 78), (12, 148)])
    def test_charpoly_counts_every_identity_instance(self, max_n, checked):
        # max_n paths, 2 max_n end minors, 2 (max_n - 1) interior minors,
        # 2 (max_n - 2) cycles, (max_n - 3)(max_n - 2) / 2 lollipops, 5 fixed
        # and 20 random bridge joins
        n = max_n
        assert checked == n + 2 * n + 2 * (n - 1) + 2 * (n - 2) + (n - 3) * (n - 2) // 2 + 25
        assert run_suite("charpoly", max_n=max_n).checked == checked

    @pytest.mark.parametrize("max_n", [1, 3])
    def test_charpoly_rejects_max_n_below_four(self, max_n):
        with pytest.raises(InvalidParameterError, match="max_n >= 4, got"):
            run_suite("charpoly", max_n=max_n)

    @pytest.mark.parametrize("max_n", [1, 2])
    def test_inequalities_rejects_max_n_below_three(self, max_n):
        with pytest.raises(InvalidParameterError, match="max_n >= 3"):
            run_suite("inequalities", max_n=max_n)

    @pytest.mark.parametrize(
        "suite,least",
        [("cycles", 3), ("lollipops", 3), ("compasses", 5), ("witnesses", 3), ("exhaustive", 3)],
    )
    def test_rejects_a_max_n_that_checks_nothing(self, capsys, suite, least):
        """Below least the suite would report checked=0 as ok; at least it checks."""
        for max_n in {1, least - 1}:
            assert main(["verify", "--suite", suite, "--max-n", str(max_n)]) == 2
            captured = capsys.readouterr()
            assert f"max_n >= {least}, got {max_n}" in captured.err and captured.out == ""
        assert run_suite(suite, max_n=least).checked > 0

    def test_omitted_max_n_takes_the_suites_own_default(self):
        assert run_suite("paths").checked == 120
        assert run_suite("cycles").checked == 118

    def test_all_names_registered(self):
        assert set(SUITES) == {
            "paths",
            "cycles",
            "lollipops",
            "compasses",
            "witnesses",
            "charpoly",
            "exhaustive",
            "inequalities",
        }


class TestSweep:
    def test_header_exact(self):
        buf = io.StringIO()
        write_csv(sweep("cycle", 3, 5), buf)
        header = buf.getvalue().splitlines()[0]
        assert header == (
            "family,n,r,r_prime,t,d,girth,main_bound,refined_bound,"
            "count01,mult1,gamma,bound_ok,hedetniemi_ok"
        )

    def test_cycle_counts_column(self):
        rows = list(sweep("cycle", 3, 30))
        for row in rows:
            assert row.count01 == 2 * ceil_div(row.n, 6) - 1
            assert row.bound_ok and row.hedetniemi_ok

    def test_lollipop_rows_all_bound_ok(self):
        rows = list(sweep("lollipop", 4, 14))
        assert rows
        for row in rows:
            assert row.bound_ok
            assert row.refined_bound is not None
            assert row.count01 >= row.refined_bound

    def test_compass_rows_flag_strengthened(self):
        rows = list(sweep("compass", 5, 16))
        strengthened = [r for r in rows if r.refined_bound is not None]
        assert strengthened, "expected strengthened cases in range"
        for row in strengthened:
            assert row.r % 6 == 0 and row.count01 >= row.refined_bound

    def test_path_rows_leave_cycle_columns_empty(self):
        rows = list(sweep("path", 1, 6))
        for row in rows:
            assert row.r is None and row.main_bound is None and row.bound_ok is None
            assert row.count01 == ceil_div(row.n, 3)

    def test_byte_identical_reruns(self):
        a, b = io.StringIO(), io.StringIO()
        write_csv(sweep("compass", 5, 12), a)
        write_csv(sweep("compass", 5, 12), b)
        assert a.getvalue() == b.getvalue()

    def test_gamma_filled_above_32(self):
        rows = list(sweep("cycle", 33, 35))
        assert [row.n for row in rows] == [33, 34, 35]
        for row in rows:
            assert row.gamma == ceil_div(row.n, 3) and row.hedetniemi_ok is True

    def test_unknown_family(self):
        # at call time, before the first row is asked for
        with pytest.raises(InvalidParameterError):
            sweep("wheel", 3, 5)

    @pytest.mark.parametrize(
        "family, least", [("path", 1), ("cycle", 3), ("lollipop", 4), ("compass", 5)]
    )
    def test_start_far_below_the_least_member(self, family, least):
        """The loop starts at the family's least n: a start of -10^12 once
        stepped through every n below it, about a minute per 10^9."""
        want = list(sweep(family, least, least + 2))
        assert want and list(sweep(family, -(10**12), least + 2)) == want
        for lo in range(least - 4, least + 1):
            got, expected = io.StringIO(), io.StringIO()
            write_csv(sweep(family, lo, least + 3), got)
            write_csv(sweep(family, least, least + 3), expected)
            assert got.getvalue() == expected.getvalue()
        assert list(sweep(family, -5, least - 1)) == []
        with pytest.raises(InvalidParameterError):
            sweep(family, least + 1, least)

    def test_compass_param_order_lexicographic(self):
        params = [(p.r, p.r_prime, p.t) for p in compass_params_for_n(12)]
        assert params == sorted(params)

    @staticmethod
    def _corrupt_formula_diameter(monkeypatch):
        original = harness._measure

        def off_by_one(*args, d, **kwargs):
            return original(*args, d=d + 1, **kwargs)

        monkeypatch.setattr(harness, "_measure", off_by_one)

    def test_corrupted_formula_diameter_raises(self, monkeypatch):
        self._corrupt_formula_diameter(monkeypatch)
        with pytest.raises(InternalConsistencyError):
            list(sweep("lollipop", 6, 6))

    @pytest.mark.parametrize("family", ["path", "cycle", "lollipop", "compass"])
    def test_corrupted_formula_diameter_raises_above_cap(self, monkeypatch, family):
        # every row's diameter is measured in O(n), so d is checked past n = 32
        self._corrupt_formula_diameter(monkeypatch)
        with pytest.raises(InternalConsistencyError):
            next(sweep(family, 40, 40))

    @pytest.mark.parametrize(
        "family,n_hi", [("lollipop", 12), ("compass", 12), ("path", 12), ("cycle", 12)]
    )
    def test_one_diameter_per_row_below_cap(self, monkeypatch, family, n_hi):
        """Every row, a path's included, reads one forest diameter off the
        ends of its leaf strip, inside its one fold at 1, and no row
        searches, builds a diametral path or builds a decomposition."""
        calls, folds = [], []
        original, fold = graphs._far_ends, graphs._fold_at_one

        def forbidden(*args, **kwargs):
            raise AssertionError("a sweep row searched, built a path or decomposed")

        def counted(g, forest, *heights):
            calls.append(g.n)
            return original(g, forest, *heights)

        def counted_fold(g, forest):
            folds.append(g.n)
            return fold(g, forest)

        for module in (graphs, bounds, harness):
            # harness no longer imports it; set it there anyway, so a call
            # through that name would still fail
            monkeypatch.setattr(module, "diameter_and_path", forbidden, raising=False)
        monkeypatch.setattr(graphs, "bfs_distances", forbidden)
        monkeypatch.setattr(graphs, "_diametral_path", forbidden)
        monkeypatch.setattr(graphs, "UnicyclicDecomposition", forbidden)
        monkeypatch.setattr(graphs, "_far_ends", counted)
        monkeypatch.setattr(harness, "_fold_at_one", counted_fold)
        rows = list(sweep(family, 4, n_hi))
        assert len(rows) > n_hi - 4
        assert calls == folds == [row.n for row in rows]


class TestCLI:
    def test_gen_and_analyze_json(self, tmp_path, capsys):
        out = tmp_path / "g.edges"
        assert main(["gen", "--family", "compass", "--n", "14", "--r", "8",
                     "--rp", "4", "--t", "3", "-o", str(out)]) == 0
        with open(out) as fh:
            g = read_edge_list(fh)
        assert g.edges() == make_compass(CompassParams(14, 8, 4, 3)).edges()

        assert main(["analyze", str(out), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["family"] == "compass"
        assert payload["count01"] == 5 and payload["main_bound"] == 5
        assert payload["verdicts"]["main_bound"] is True
        assert set(CSV_COLUMNS) <= set(payload)

    def test_analyze_table_output(self, tmp_path, capsys):
        out = tmp_path / "c6.edges"
        main(["gen", "--family", "cycle", "--n", "6", "-o", str(out)])
        assert main(["analyze", str(out)]) == 0
        text = capsys.readouterr().out
        assert "count01" in text and "hedetniemi" in text

    @pytest.mark.parametrize(
        "name,g",
        [
            ("c6", make_cycle(6)),
            ("compass_14_8_4_3", make_compass(CompassParams(14, 8, 4, 3))),
            # n = 40: gamma comes from the linear tree DP at every n
            ("lollipop_40_7", make_lollipop(40, 7)),
            # a triangle with two pendant P2s at one vertex: core kind "other"
            (
                "other_triangle_two_p2",
                Graph.from_edges(7, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 5), (3, 4), (5, 6)]),
            ),
        ],
    )
    @pytest.mark.parametrize("flags,ext", [((), "txt"), (("--json",), "json")])
    def test_analyze_stdout_pinned(self, tmp_path, capsys, name, g, flags, ext):
        path = tmp_path / "g.edges"
        with open(path, "w", encoding="ascii") as fh:
            write_edge_list(g, fh)
        assert main(["analyze", str(path), *flags]) == 0
        golden = Path(__file__).parent / "golden" / f"analyze_{name}.{ext}"
        assert capsys.readouterr().out == golden.read_text(encoding="ascii")

    def test_verify_exit_codes(self, capsys):
        assert main(["verify", "--suite", "paths", "--max-n", "15"]) == 0
        out = capsys.readouterr().out
        assert "failures=0" in out and "ok" in out

    def test_verify_rejects_max_n_zero(self, capsys):
        assert main(["verify", "--suite", "paths", "--max-n", "0"]) == 2
        captured = capsys.readouterr()
        assert "max_n" in captured.err and captured.out == ""

    def test_verify_rejects_inequalities_below_three(self, capsys):
        assert main(["verify", "--suite", "inequalities", "--max-n", "2"]) == 2
        captured = capsys.readouterr()
        assert "max_n >= 3" in captured.err and captured.out == ""

    def test_verify_rejects_charpoly_below_four(self, capsys):
        assert main(["verify", "--suite", "charpoly", "--max-n", "3"]) == 2
        captured = capsys.readouterr()
        assert "max_n >= 4, got 3" in captured.err and captured.out == ""

    def test_scan_stdout_deterministic(self, capsys):
        assert main(["scan", "--family", "lollipop", "--n-range", "4..8"]) == 0
        first = capsys.readouterr().out
        assert main(["scan", "--family", "lollipop", "--n-range", "4..8"]) == 0
        second = capsys.readouterr().out
        assert first == second
        assert first.splitlines()[0].startswith("family,n,r")

    def test_scan_to_file(self, tmp_path):
        out = tmp_path / "rows.csv"
        assert main(["scan", "--family", "cycle", "--n-range", "3..10",
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 8

    def test_gen_requires_family_params(self, capsys):
        assert main(["gen", "--family", "lollipop", "--n", "8"]) == 2
        assert "error" in capsys.readouterr().err

    def test_bad_range(self, capsys):
        assert main(["scan", "--family", "cycle", "--n-range", "abc"]) == 2

    def test_empty_range_writes_nothing(self, tmp_path, capsys):
        assert main(["scan", "--family", "cycle", "--n-range", "5..3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "empty range 5..3" in captured.err
        out = tmp_path / "rows.csv"
        assert main(["scan", "--family", "cycle", "--n-range", "5..3", "--out", str(out)]) == 2
        assert not out.exists()

    def test_verify_rejects_exhaustive_past_the_cap_before_any_work(self, monkeypatch, capsys):
        def refuse(g):
            raise AssertionError("analyze reached")

        monkeypatch.setattr(harness, "analyze", refuse)
        with pytest.raises(InvalidParameterError, match="got 17"):
            run_suite("exhaustive", max_n=17)
        assert main(["verify", "--suite", "exhaustive", "--max-n", "17"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "got 17" in captured.err

    def test_reimport_frees_previous_copy(self):
        # run in a child: dropping unilap from sys.modules here would split
        # the classes the other tests hold from the ones they catch
        script = (
            "import gc, sys, weakref\n"
            "import unilap\n"
            "old = weakref.ref(unilap.Graph)\n"
            "for name in [m for m in sys.modules if m.split('.')[0] == 'unilap']:\n"
            "    del sys.modules[name]\n"
            "del unilap\n"
            "import unilap\n"
            "gc.collect()\n"
            "sys.exit(old() is not None)\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_console_script_entrypoint(self):
        proc = subprocess.run(
            [sys.executable, "-m", "unilap.cli", "gen", "--family", "cycle", "--n", "5"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "5 5"
