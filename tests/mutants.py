"""A fixed table of source mutants, and a runner that checks the suite kills each one.

Each entry is (file, old, new, what it breaks, killer): old must occur
exactly once in file (tests/test_mutants.py checks that), and the mutant is
that file with old replaced by new. killer is the test id, as pytest prints
it, of the first test found to kill the mutant. The table covers every
function on the routes that the retired test oracles used to guard: the
pivot fold and cycle closers of linalg, the leaf strip, the fold at 1, the
cycle reach, the diameter, its ends, the diametral path and the core of
graphs, both determinant routes of charpoly, the necklace walk and the
class builder of enumeration, the main bound, the strengthened-compass
predicate and the verdicts of bounds, the laws of the family suites and of
the random checks, the scan loop's d check, the verdicts a scan row
derives, the scan CSV's text, the exhaustive suite's failure list, the
interlacing chain, Graph's int check on vertex ids, the generators' int
check on sizes, the family generators, and the L v = v check of the
witnesses.

Run from anywhere, with no arguments:

    python tests/mutants.py

It first runs the unmutated suite in a scratch copy of src/ and tests/ (a
failure there stops it), then, for each mutant, a fresh copy with the
mutant applied, through

    python -m pytest -x -q -p no:cacheprovider --hypothesis-seed=0

given the mutant's recorded killer alone. Only when that test passes does
it say so and run the whole suite the same way. It prints killed or
survived with the first failing test, and exits 1 if any mutant survives
the whole suite. The copies leave out tests/test_mutants.py, which fails
on any mutated source by design, and each checks that it imports unilap
from its own src/, ahead of any installed copy.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PYTEST = [
    sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0"
]

LINALG = "src/unilap/linalg.py"
GRAPHS = "src/unilap/graphs.py"
CHARPOLY = "src/unilap/charpoly.py"
ENUMERATION = "src/unilap/enumeration.py"
WITNESSES = "src/unilap/witnesses.py"
BOUNDS = "src/unilap/bounds.py"
HARNESS = "src/unilap/harness.py"
SPECTRA = "src/unilap/spectra.py"
# the head of _fold_pivots' loop body, which _close_cycle's loop does not share
FOLD_PIVOTS = "        u = to[x]\n        a = num[x]\n        if zero_children[x]:\n"
PAIRED = "            neg += 1\n            pos += 1\n"

MUTANTS = [
    # linalg.sparse_inertia: the heap kernel on graphs with two cycles in a component
    (
        LINALG,
        "heapq.heappush(heap, (len(row), u))",
        "pass",
        "sparse_inertia stops re-pushing the rows a pivot touched",
        "tests/test_acceptance.py::test_09_pendant_and_attachment",
    ),
    (
        LINALG,
        "            pos += 1\n            touched = _eliminate_block",
        "            pos += 2\n            touched = _eliminate_block",
        "sparse_inertia counts two positives for a 2x2 block",
        "tests/test_kernel.py::TestDifferential::test_every_unicyclic_class[3]",
    ),
    (
        LINALG,
        "            if rows[pivot][pivot] > 0:",
        "            if rows[pivot][pivot] < 0:",
        "sparse_inertia swaps the sign of every 1x1 pivot",
        "tests/test_bounds.py::TestPendantLeafLemma::test_a_leaf_at_every_vertex_of_every_class[3]",
    ),
    # linalg._cycle_inertia: an intact cycle's closing continuant
    (
        LINALG,
        "- 2 * q**r * math.prod(dens)",
        "- q**r * math.prod(dens)",
        "_cycle_inertia drops the factor 2 of the periodic term",
        "tests/test_acceptance.py::test_02_cycle_law",
    ),
    (
        LINALG,
        "    t = nums[r - 1] * f_prev - e * w_prev",
        "    t = nums[r - 1] * f_prev + e * w_prev",
        "_cycle_inertia takes the wrong sign of the trailing Schur block",
        "tests/test_acceptance.py::test_02_cycle_law",
    ),
    # Left out as equivalent: counting a zero F_k as a sign change. Then
    # F_(k+1) = -e F_(k-1) with e > 0, so either sign given to F_k makes
    # exactly one change across the pair and leaves the same last sign.
    # linalg._fold_pivots: the pendant fold at every shift but 1
    (
        LINALG,
        FOLD_PIVOTS + "            neg += 1\n",
        FOLD_PIVOTS + "            neg += 0\n",
        "_fold_pivots counts no negative for a paired vertex",
        "tests/test_acceptance.py::test_01_path_law",
    ),
    (
        LINALG,
        FOLD_PIVOTS + PAIRED + "            zero += zero_children[x] - 1\n",
        FOLD_PIVOTS + PAIRED + "            zero += zero_children[x]\n",
        "_fold_pivots counts every zero child as a zero, the paired one too",
        "tests/test_acceptance.py::test_01_path_law",
    ),
    # linalg._close_cycle: a cut cycle folds as a path, an intact one by _cycle_inertia
    (
        LINALG,
        "    for x, u in zip(path, path[1:]):",
        "    for x, u in zip(path, path[-1:] + path[:-2]):",
        "_close_cycle folds each vertex of a cut cycle into the one before it",
        "tests/test_acceptance.py::test_01_path_law",
    ),
    (
        LINALG,
        "        nums = [num[v] if den[v] > 0 else -num[v] for v in cycle]",
        "        nums = [num[v] for v in cycle]",
        "_close_cycle passes pivots with a negative den to _cycle_inertia unsigned",
        "tests/test_bounds.py::TestPendantLeafLemma::test_a_leaf_at_every_vertex_of_every_class[10]",
    ),
    (
        LINALG,
        "            return int(a < 0), int(not a), int(a > 0)",
        "            return int(a <= 0), 0, int(a > 0)",
        "_close_cycle counts a tree's zero root as a negative",
        "tests/test_acceptance.py::test_01_path_law",
    ),
    # graphs._cycle_forest: the leaf strip every route reads
    (
        GRAPHS,
        "        for v in adj[start]:  # a loop",
        "        for v in reversed(adj[start]):  # a loop",
        "_cycle_forest walks the cycle towards the larger neighbour first",
        "tests/test_graphs.py::TestDecomposition::test_lollipop_decomposition",
    ),
    (
        GRAPHS,
        "    if max(left) > 2:\n        return None",
        "    if max(left) > 3:\n        return None",
        "_cycle_forest takes a 2-core with a degree-3 vertex for disjoint cycles",
        "tests/test_acceptance.py::test_07_charpoly_identities",
    ),
    (
        GRAPHS,
        "            cycles.append([x])\n",
        "            pass\n",
        "_cycle_forest drops every tree's root",
        "tests/test_acceptance.py::test_01_path_law",
    ),
    (
        GRAPHS,
        "    if forest is None or len(forest[2][0]) == 1:",
        "    if forest is None:",
        "_unicyclic_strip accepts a tree",
        "tests/test_bounds.py::TestAnalyze::test_rejects_non_unicyclic",
    ),
    # graphs._pendant_pass: the fold at 1 (pivots, domination states, heights)
    (
        GRAPHS,
        "            neg += (t > 0) is not (s > 0)",
        "            neg += (t > 0) is (s > 0)",
        "_pendant_pass counts the positive pivots as negatives",
        "tests/test_acceptance.py::test_10_exhaustive_main_bound",
    ),
    (
        GRAPHS,
        "        a[u] += dom if dom < cx else cx",
        "        a[u] += dom",
        "_pendant_pass never lets a child of a vertex in D go undominated",
        "tests/test_bounds.py::TestDomination::test_small_known_values",
    ),
    (
        GRAPHS,
        "        b[u] = via_child if via_child < via_x else via_x",
        "        b[u] = via_x",
        "_pendant_pass keeps only one way of dominating a vertex by a child",
        "tests/test_bounds.py::TestDomination::test_matches_exhaustive_oracle",
    ),
    (
        GRAPHS,
        "            down[u], second[u], lo[u] = h, down[u], lo[x]",
        "            down[u], second[u], lo[u] = h, second[u], lo[x]",
        "_pendant_pass does not demote the old height to the runner-up",
        "tests/test_bounds.py::TestBranchAndBoundSplit::test_never_reached_on_trees_and_unicyclic_graphs",
    ),
    (
        GRAPHS,
        "            if h == down[u] and lo[x] < lo[u]:",
        "            if h == down[u] and lo[x] > lo[u]:",
        "_pendant_pass keeps the largest deepest label on a tie",
        "tests/test_cycle_walks.py::TestAgainstBruteForce::test_every_class_and_a_relabelling[5]",
    ),
    (
        GRAPHS,
        "        elif h >= second[u]:",
        "        elif h > second[u]:",
        "_pendant_pass ignores a third branch tied at the greatest depth",
        "tests/test_diameter.py::TestDifferential::test_every_unicyclic_class_and_a_relabelling[11]",
    ),
    # graphs._cycle_gamma: gamma closed by one walk with three triples
    (
        GRAPHS,
        "    return min(pa, pb, fa, la, lb, lc)",
        "    return min(pa, pb, la, lb, lc)",
        "_cycle_gamma drops the run with c_0 in D",
        "tests/test_bounds.py::TestDomination::test_matches_exhaustive_oracle",
    ),
    (
        GRAPHS,
        "    fa, fb, fc = pa, pb if pb < pc else pc, inf",
        "    fa, fb, fc = pa, pb, inf",
        "_cycle_gamma forgets that c_0 in D dominates c_{r-1}",
        "tests/test_bounds.py::TestDomination::test_matches_exhaustive_oracle",
    ),
    (
        GRAPHS,
        "        pa, pb, pc = av + (dom if dom < pc else pc)",
        "        pa, pb, pc = av + (dom if dom > pc else pc)",
        "_cycle_gamma takes the larger state for a vertex in D on the plain run",
        "tests/test_bounds.py::TestDomination::test_matches_exhaustive_oracle",
    ),
    # graphs._cycle_reach: every cycle vertex's farthest reach round the cycle
    (
        GRAPHS,
        "    for p in range(s - 1, s - r, -1):",
        "    for p in range(s - 1, s - 1, -1):",
        "_cycle_reach drops the backward pass",
        "tests/test_bounds.py::TestDominationDP::test_every_unicyclic_class[8]",
    ),
    (
        GRAPHS,
        "    if far[m] == top:",
        "    if far[m] < top:",
        "_cycle_reach never recomputes the dominant index's own reach",
        "tests/test_acceptance.py::test_10_exhaustive_main_bound",
    ),
    (
        GRAPHS,
        "        x, y = heights[j], heights[j - odd]",
        "        x, y = heights[j], heights[j]",
        "_cycle_reach drops the second antipode on an odd cycle",
        "tests/test_bounds.py::TestDominationDP::test_every_unicyclic_class[6]",
    ),
    # graphs._diameter: d from the heights, the cycle reach and the apex sums.
    # Left out as equivalent: reading the apex sums when 2 max H_i >= d, not
    # only when 2 max H_i > d. When 2 max H_i = d only an apex on the cycle,
    # c_i with H_i the max, can reach d, and then reach[i] = d, so lo[c_i]
    # is a candidate for _far_ends already.
    (
        GRAPHS,
        "    if 2 * max(heights) > d:",
        "    if False:",
        "_diameter never reads the apex sums",
        "tests/test_bounds.py::TestCheckedDirection::test_count_unbounded_at_fixed_diameter_and_girth[2]",
    ),
    (
        GRAPHS,
        "    reach = list(map(add, heights, _cycle_reach(heights)))",
        "    reach = heights",
        "_diameter ignores the cycle reach",
        "tests/test_acceptance.py::test_10_exhaustive_main_bound",
    ),
    # graphs._far_ends: the diameter's smallest pair of ends
    (
        GRAPHS,
        "    if k + far == d:",
        "    if k + far > d:",
        "_far_ends never looks across the cycle for the second end",
        "tests/test_bounds.py::TestDominationDP::test_every_unicyclic_class[3]",
    ),
    (
        GRAPHS,
        "    tight = _where(reach, d)",
        "    tight = _where(reach, d)[:1]",
        "_far_ends keeps only the first cycle vertex that reaches d",
        "tests/test_bounds.py::TestDominationDP::test_every_unicyclic_class[3]",
    ),
    (
        GRAPHS,
        "        x, k, below, skip = parent[x], k + 1, down[x] + 1, lo[x]",
        "        x, k, below, skip = parent[x], k + 1, down[x] + 1, -1",
        "_far_ends may take the second end in the first end's own branch",
        "tests/test_cycle_walks.py::TestAgainstBruteForce::test_every_class_and_a_relabelling[6]",
    ),
    # graphs._diametral_path: the smallest sequence from u to v
    (
        GRAPHS,
        "(2 * ahead == r and ring[-1] < ring[1])",
        "(2 * ahead == r and ring[-1] > ring[1])",
        "_diametral_path takes the other arc between antipodes on an even cycle",
        "tests/test_cycle_walks.py::TestLargeCycles::test_sun_every_leaf_at_the_diameter[4]",
    ),
    (
        GRAPHS,
        "        return tuple(climb[: rank[back[-1]]] + back[::-1])",
        "        return tuple(climb[: rank[back[-1]] + 1] + back[::-1])",
        "_diametral_path lists the meet of the two climbs twice",
        "tests/test_cycle_walks.py::TestAgainstBruteForce::test_every_class_and_a_relabelling[6]",
    ),
    # graphs._reduce_to_core and the lazy core
    (
        GRAPHS,
        "(r + s + t, r, min(arc, r - arc), min(s, t))",
        "(r + s + t, r, min(arc, r - arc), max(s, t))",
        "_reduce_to_core reports the longer compass tail as t",
        "tests/test_cycle_walks.py::TestAgainstBruteForce::test_every_class_and_a_relabelling[6]",
    ),
    (
        GRAPHS,
        "    if i != j:\n        s, t, arc",
        "    if True:\n        s, t, arc",
        "_reduce_to_core classifies a core whose ends share a pendant tree",
        "tests/test_cycle_walks.py::TestAgainstBruteForce::test_every_class_and_a_relabelling[6]",
    ),
    (
        GRAPHS,
        "        for x in ends:\n            while x not in keep:",
        "        for x in ends[:1]:\n            while x not in keep:",
        "core_vertices keeps the first end's climb alone",
        "tests/test_cycle_walks.py::TestAgainstBruteForce::test_every_class_and_a_relabelling[4]",
    ),
    # charpoly.charpoly_det_matrix: the Berkowitz recursion
    (
        CHARPOLY,
        "            q.append(-sum(map(mul, row, col)))",
        "            q.append(sum(map(mul, row, col)))",
        "charpoly_det_matrix flips the sign of every R A^j C term",
        "tests/test_acceptance.py::test_07_charpoly_identities",
    ),
    (
        CHARPOLY,
        "        q, col = [1, -row[k]], [r[k] for r in rows[:k]]",
        "        q, col = [1, row[k]], [r[k] for r in rows[:k]]",
        "charpoly_det_matrix adds the new diagonal entry instead of subtracting it",
        "tests/test_acceptance.py::test_07_charpoly_identities",
    ),
    # charpoly._forest_charpoly: the leaf-strip fold at x = 2^b
    (
        CHARPOLY,
        "        det *= closing - 2 * math.prod(den[v] for v in cycle)",
        "        det *= closing",
        "_forest_charpoly drops the 2 prod(dens) term of a cycle",
        "tests/test_acceptance.py::test_07_charpoly_identities",
    ),
    (
        CHARPOLY,
        "    det = 1 if n % 2 == 0 else -1",
        "    det = 1",
        "_forest_charpoly drops the sign (-1)^n",
        "tests/test_acceptance.py::test_07_charpoly_identities",
    ),
    (
        CHARPOLY,
        "    b = math.prod(d + 1 for d in diag).bit_length() + 1",
        "    b = math.prod(d + 1 for d in diag).bit_length()",
        "_forest_charpoly takes digits one bit too narrow",
        "tests/test_acceptance.py::test_07_charpoly_identities",
    ),
    (
        CHARPOLY,
        "        if c >= half:",
        "        if c >= big:",
        "_forest_charpoly reads unsigned digits",
        "tests/test_acceptance.py::test_07_charpoly_identities",
    ),
    (
        CHARPOLY,
        "times_den(last, times_den(prev, f_prev) + w)",
        "times_den(last, f_prev + w)",
        "_forest_charpoly closes a cycle with dens[r-1] alone on F_prev",
        "tests/test_acceptance.py::test_07_charpoly_identities",
    ),
    (
        CHARPOLY,
        "            det *= num[cycle[0]]\n",
        "            det *= 1\n",
        "_forest_charpoly skips a tree root's factor",
        "tests/test_acceptance.py::test_07_charpoly_identities",
    ),
    (
        CHARPOLY,
        "        return a if den[v] == 1 else den[v] * a",
        "        return a",
        "_forest_charpoly multiplies by every den as if it were 1",
        "tests/test_acceptance.py::test_07_charpoly_identities",
    ),
    # enumeration._bracelets and _graph: one class per necklace
    (
        ENUMERATION,
        "max(a[t - p], a[1])",
        "max(a[t - p], a[1] + 1)",
        "_bracelets starts the last slot above a[1]",
        "tests/test_enumeration.py::TestEnumerateUnicyclic::test_counts_frozen",
    ),
    (
        ENUMERATION,
        "                if not any(rev[j] == a0 and rev[j:] + rev[:j] < a for j in range(r)):",
        "                if True:",
        "_bracelets keeps a necklace whose reversal has a smaller rotation",
        "tests/test_enumeration.py::TestEnumerateUnicyclic::test_counts_frozen",
    ),
    (
        ENUMERATION,
        "(0, r - 2) if i == r - 1",
        "(r - 2, 0) if i == r - 1",
        "_graph writes the last cycle vertex's neighbours unsorted",
        "tests/test_bounds.py::TestPendantLeafLemma::test_a_leaf_at_every_vertex_of_every_class[3]",
    ),
    (
        ENUMERATION,
        "            up = parent + off if parent else i",
        "            up = parent + off if parent > 1 else i",
        "_graph hangs a tree vertex below the root's first child on the cycle",
        "tests/test_acceptance.py::test_10_exhaustive_main_bound",
    ),
    # bounds._verdicts: what analyze reports as checked
    (
        BOUNDS,
        '{"main_bound": count01 >= main}',
        '{"main_bound": count01 >= main - 1}',
        "_verdicts accepts count01 one below the main bound",
        "tests/test_bounds.py::TestVerdicts::test_each_bound_fails_one_step_past_it[1-7]",
    ),
    (
        BOUNDS,
        'verdicts["hedetniemi"] = count01 <= gamma',
        'verdicts["hedetniemi"] = count01 <= gamma + 1',
        "_verdicts accepts count01 one above gamma",
        "tests/test_bounds.py::TestVerdicts::test_each_bound_fails_one_step_past_it[1-7]",
    ),
    (
        BOUNDS,
        'verdicts["chain"] = d + 1 <= 3 * main and main <= count01 and count01 <= gamma',
        'verdicts["chain"] = True',
        "_verdicts passes the chain always",
        "tests/test_bounds.py::TestVerdicts::test_each_bound_fails_one_step_past_it[1-7]",
    ),
    # bounds: the main bound and the strengthened-compass hypothesis
    (
        BOUNDS,
        "    return ceil_div(d, 3) + ceil_div(r, 6) - 1\n",
        "    return ceil_div(d, 3) + ceil_div(r, 6) - 2\n",
        "main_lower_bound returns one below the bound",
        "tests/test_acceptance.py::test_10_exhaustive_main_bound",
    ),
    (
        BOUNDS,
        "    return n % 3 == 0 and r % 6 == 0 and r_prime == r // 2 and t % 3 == 1",
        "    return False",
        "_strengthens never strengthens a compass",
        "tests/test_bounds.py::TestBoundFormulas::test_compass_bounds",
    ),
    (
        BOUNDS,
        " or _strengthens(cn, cr, crp, cn - cr - ct)",
        "",
        "analyze tries only the core's t for the strengthened compass bound",
        "tests/test_bounds.py::TestAnalyze::test_strengthened_bound_reported_for_either_tail",
    ),
    # the laws of the family suites, each decided by one helper
    (
        HARNESS,
        "    if count != ceil_div(n, 3):",
        "    if count < ceil_div(n, 3) - 1:",
        "suite_paths accepts a count one off ceil(n/3)",
        "tests/test_harness.py::TestSuiteLaws::test_path_law",
    ),
    (
        HARNESS,
        "    if count != 2 * ceil_div(n, 6) - 1:",
        "    if count < 2 * ceil_div(n, 6) - 2:",
        "suite_cycles accepts a count one off 2 ceil(n/6) - 1",
        "tests/test_harness.py::TestSuiteLaws::test_cycle_law",
    ),
    (
        HARNESS,
        "        if exact is not None and count != exact:",
        "        if exact is not None and count < exact - 1:",
        "suite_lollipops accepts a count one off the exact count",
        "tests/test_harness.py::TestSuiteLaws::test_lollipop_law",
    ),
    (
        HARNESS,
        "    if (mult1 == 1) != (n % 3 == 0):",
        "    if False:",
        "suite_paths skips its multiplicity law",
        "tests/test_harness.py::TestSuiteLaws::test_path_law",
    ),
    (
        HARNESS,
        "    if count < main_lower_bound(n // 2, n):",
        "    if count < main_lower_bound(n // 2, n) - 1:",
        "suite_cycles accepts a count one under the main bound",
        "tests/test_harness.py::TestSuiteLaws::test_cycle_law",
    ),
    (
        HARNESS,
        "    if count < refined_lollipop_bound(d, r):",
        "    if count < refined_lollipop_bound(d, r) - 1:",
        "suite_lollipops accepts a count one under the refined bound",
        "tests/test_harness.py::TestSuiteLaws::test_lollipop_law",
    ),
    (
        HARNESS,
        "    if strengthened is not None and count < strengthened:",
        "    if strengthened is not None and count < strengthened - 1:",
        "suite_compasses accepts a count one under the strengthened bound",
        "tests/test_harness.py::TestSuiteLaws::test_compass_law",
    ),
    # SweepRow.to_csv_fields: the scan CSV's text
    (
        HARNESS,
        '("true" if x else "false") if type(x) is bool else str(x)',
        '("true" if x else "false") if x in (0, 1) else str(x)',
        "to_csv_fields writes the ints 0 and 1 as false and true",
        "tests/test_harness.py::TestSweep::test_scan_bytes_pinned[path]",
    ),
    # suite_exhaustive's failure list and the interlacing chain
    (
        HARNESS,
        "                        failures.append((name, n, g.edges()))",
        "                        pass",
        "suite_exhaustive drops its failures",
        "tests/test_harness.py::TestSuites::test_exhaustive_reports_every_false_verdict_by_name[main_bound]",
    ),
    (
        SPECTRA,
        "        a <= b + INTERLACING_SLACK and b <= c + INTERLACING_SLACK\n",
        "        a <= b + INTERLACING_SLACK\n",
        "_interlaces checks one side of the chain",
        "tests/test_spectra.py::TestInterlacing::test_each_side_of_the_chain_is_checked[spec_h3-False]",
    ),
    # Graph's int check on n and every vertex id, in both constructors, the
    # queries and the edits
    (
        GRAPHS,
        "                if type(w) is not int or not prev < w < n or w == v:",
        "                if not prev < w < n or w == v:",
        "Graph accepts a vertex id that is not an int",
        "tests/test_graphs.py::TestGraphValue::test_direct_construction_validates[2-adj10]",
    ),
    (
        GRAPHS,
        "            if not (type(u) is int and type(v) is int and 0 <= u < n and 0 <= v < n):",
        "            if not (0 <= u < n and 0 <= v < n):",
        "Graph.from_edges accepts an edge end that is not an int",
        "tests/test_graphs.py::TestGraphValue::test_from_edges_validates",
    ),
    (
        GRAPHS,
        "        if type(v) is not int or not 0 <= v < self.n:\n"
        '            raise InvalidParameterError(f"vertex {v!r} needs to be an int in 0..{self.n - 1}")\n'
        "        return len(self.adj[v])",
        "        if not 0 <= v < self.n:\n"
        '            raise InvalidParameterError(f"vertex {v!r} needs to be an int in 0..{self.n - 1}")\n'
        "        return len(self.adj[v])",
        "Graph.degree accepts a vertex id that is not an int",
        "tests/test_graphs.py::TestVertexIdsThatAreNotInts::test_degree_and_without_vertex[1.0]",
    ),
    (
        GRAPHS,
        "        if not (type(u) is int and type(v) is int and 0 <= u < self.n and 0 <= v < self.n):",
        "        if not (0 <= u < self.n and 0 <= v < self.n):",
        "Graph.has_edge accepts an edge end that is not an int",
        "tests/test_graphs.py::TestVertexIdsThatAreNotInts::test_edge_queries_and_edits[0-1.0]",
    ),
    (
        GRAPHS,
        "        if type(v) is not int or not 0 <= v < self.n:\n"
        '            raise InvalidParameterError(f"vertex {v!r} needs to be an int in 0..{self.n - 1}")\n'
        "        relabel",
        "        if not 0 <= v < self.n:\n"
        '            raise InvalidParameterError(f"vertex {v!r} needs to be an int in 0..{self.n - 1}")\n'
        "        relabel",
        "Graph.without_vertex accepts a vertex id that is not an int",
        "tests/test_graphs.py::TestVertexIdsThatAreNotInts::test_degree_and_without_vertex[1.0]",
    ),
    (
        GRAPHS,
        "    if not (type(u) is int and type(v) is int and 0 <= u < g1.n and 0 <= v < g2.n):",
        "    if not (0 <= u < g1.n and 0 <= v < g2.n):",
        "join_with_edge accepts a bridge end that is not an int",
        "tests/test_graphs.py::TestVertexIdsThatAreNotInts::test_join[0-True]",
    ),
    # the family generators
    (
        GRAPHS,
        "    adj[r - 1] = (0,) + adj[r - 1]",
        "    adj[r - 1] = adj[r - 1] + (0,)",
        "make_lollipop writes vertex r-1's neighbours unsorted",
        "tests/test_graphs.py::TestGenerators::test_every_small_member_has_the_documented_edges",
    ),
    (
        GRAPHS,
        "    adj[b] = (t, b - 1, b + 1)",
        "    adj[b] = (t, b - 1)",
        "make_compass leaves out the second tail's edge at the degree-3 end",
        "tests/test_acceptance.py::test_03_reference_examples",
    ),
    (
        GRAPHS,
        "    adj[0] = adj[0][1:]\n",
        "    adj[0] = adj[0][:1] if n > 1 else adj[0][1:]\n",
        "_path_adj gives vertex 0 the neighbour -1",
        "tests/test_acceptance.py::test_01_path_law",
    ),
    # the sizes the generators check for an int themselves, as they build
    # through Graph._trusted
    (
        GRAPHS,
        '    if type(n) is not int or n < 1:\n        raise InvalidParameterError(f"path needs',
        '    if n < 1:\n        raise InvalidParameterError(f"path needs',
        "make_path accepts a size that is not an int",
        "tests/test_graphs.py::TestSizesThatAreNotInts::test_path[3.0]",
    ),
    (
        GRAPHS,
        "    if type(n) is not int or n < 3:",
        "    if n < 3:",
        "make_cycle compares a size that is not an int",
        "tests/test_graphs.py::TestSizesThatAreNotInts::test_cycle[4]",
    ),
    (
        GRAPHS,
        "    if type(n) is not int or type(r) is not int or not 3 <= r <= n:",
        "    if type(r) is not int or not 3 <= r <= n:",
        "make_lollipop accepts an n that is not an int",
        "tests/test_graphs.py::TestSizesThatAreNotInts::test_lollipop[5.0-3]",
    ),
    (
        GRAPHS,
        "    if type(n) is not int or type(r) is not int or not 3 <= r <= n:",
        "    if type(n) is not int or not 3 <= r <= n:",
        "make_lollipop accepts an r that is not an int",
        "tests/test_graphs.py::TestSizesThatAreNotInts::test_lollipop[5-3.0]",
    ),
    (
        GRAPHS,
        "type(self.n) is int",
        "True",
        "CompassParams.validate accepts an n that is not an int",
        "tests/test_graphs.py::TestSizesThatAreNotInts::test_compass[float-0]",
    ),
    (
        GRAPHS,
        "type(self.r) is int",
        "True",
        "CompassParams.validate accepts an r that is not an int",
        "tests/test_graphs.py::TestSizesThatAreNotInts::test_compass[float-1]",
    ),
    (
        GRAPHS,
        "type(self.r_prime) is int",
        "True",
        "CompassParams.validate accepts an r' that is not an int",
        "tests/test_graphs.py::TestSizesThatAreNotInts::test_compass[float-2]",
    ),
    (
        GRAPHS,
        "type(self.t) is int",
        "True",
        "CompassParams.validate accepts a t that is not an int",
        "tests/test_graphs.py::TestSizesThatAreNotInts::test_compass[float-3]",
    ),
    (
        ENUMERATION,
        "    if type(size) is not int or size < 1:",
        "    if size < 1:",
        "rooted_trees accepts a size that is not an int",
        "tests/test_graphs.py::TestSizesThatAreNotInts::test_rooted_trees[3.0]",
    ),
    (
        ENUMERATION,
        "    if type(n) is not int or not 3 <= n <= ENUMERATION_MAX_N:",
        "    if not 3 <= n <= ENUMERATION_MAX_N:",
        "enumerate_unicyclic accepts a size that is not an int",
        "tests/test_graphs.py::TestSizesThatAreNotInts::test_enumerate_unicyclic_at_call_time[5.0]",
    ),
    (
        HARNESS,
        "    if type(n_lo) is not int or type(n_hi) is not int:",
        "    if type(n_hi) is not int:",
        "sweep accepts an n_lo that is not an int",
        "tests/test_graphs.py::TestSizesThatAreNotInts::test_sweep_range_at_call_time[1.0-3]",
    ),
    (
        HARNESS,
        "    if type(n_lo) is not int or type(n_hi) is not int:",
        "    if type(n_lo) is not int:",
        "sweep accepts an n_hi that is not an int",
        "tests/test_graphs.py::TestSizesThatAreNotInts::test_sweep_range_at_call_time[1-3.0]",
    ),
    # the scan loop's d cross-check and the verdicts a SweepRow derives
    (
        HARNESS,
        "            if measured != d:\n",
        "            if False:\n",
        "_sweep_rows drops its check of the formula's d",
        "tests/test_harness.py::TestSweep::test_corrupted_formula_diameter_raises",
    ),
    (
        HARNESS,
        "else self.count01 >= self.main_bound",
        "else self.count01 > self.main_bound",
        "SweepRow fails bound_ok when count01 meets the main bound",
        "tests/test_harness.py::TestSweep::test_cycle_counts_column",
    ),
    (
        HARNESS,
        "self.hedetniemi_ok = self.count01 <= self.gamma",
        "self.hedetniemi_ok = self.count01 < self.gamma",
        "SweepRow fails hedetniemi_ok when count01 equals gamma",
        "tests/test_harness.py::TestSweep::test_cycle_counts_column",
    ),
    # the laws of the random checks and the suites that no tier-1 corpus
    # breaks, each killed by a test that feeds it a wrong measurement
    (
        HARNESS,
        "            if not ceil_div(d + 1, 3) <= c <= gamma:",
        "            if not ceil_div(d + 1, 3) <= c <= gamma + 1:",
        "check_tree_chain accepts count01 = gamma + 1",
        "tests/test_harness.py::TestVerifyLawsFedAWrongMeasurement::test_tree_chain[above_gamma]",
    ),
    (
        HARNESS,
        "            if not ceil_div(d + 1, 3) <= c <= gamma:",
        "            if not ceil_div(d + 1, 3) - 1 <= c <= gamma:",
        "check_tree_chain accepts count01 one under ceil((d+1)/3)",
        "tests/test_harness.py::TestVerifyLawsFedAWrongMeasurement::test_tree_chain[below_ceil]",
    ),
    (
        HARNESS,
        "            if before < after:",
        "            if before + 1 < after:",
        "check_pendant_monotone accepts a rise of one",
        "tests/test_harness.py::TestVerifyLawsFedAWrongMeasurement::test_pendant_monotone_flags_a_rise_of_one",
    ),
    (
        HARNESS,
        "            if multiplicity(h, 1) != multiplicity(g, 1):",
        "            if abs(multiplicity(h, 1) - multiplicity(g, 1)) > 1:",
        "check_attachment_invariance accepts a change of one",
        "tests/test_harness.py::TestVerifyLawsFedAWrongMeasurement::test_attachment_invariance_flags_a_change_of_one",
    ),
    (
        HARNESS,
        "                    elif multiplicity(make_lollipop(n, r), 1) != expected:",
        "                    elif multiplicity(make_lollipop(n, r), 1) < expected - 1:",
        "suite_witnesses accepts a lollipop multiplicity one short",
        "tests/test_harness.py::TestVerifyLawsFedAWrongMeasurement::test_witnesses_flag_a_lollipop_multiplicity_one_short",
    ),
    (
        HARNESS,
        "                    elif multiplicity(make_compass(p), 1) < 1:",
        "                    elif False:",
        "suite_witnesses skips the compass multiplicity check",
        "tests/test_harness.py::TestVerifyLawsFedAWrongMeasurement::test_witnesses_flag_a_compass_without_the_eigenvalue",
    ),
    (
        HARNESS,
        "                    if value != PHI_AT_ONE_BY_R_MOD6[r % 6]:",
        "                    if False:",
        "suite_lollipops skips its phi(.;1) table",
        "tests/test_harness.py::TestVerifyLawsFedAWrongMeasurement::test_lollipops_flag_a_wrong_phi_at_one",
    ),
    (
        HARNESS,
        "                failures.append((name, params))",
        "                pass",
        "suite_charpoly drops its identity failures",
        "tests/test_harness.py::TestVerifyLawsFedAWrongMeasurement::test_charpoly_reports_every_failed_identity",
    ),
    (
        HARNESS,
        "                failures.append((i, n, edge))",
        "                pass",
        "check_interlacing_random drops its failures",
        "tests/test_harness.py::TestVerifyLawsFedAWrongMeasurement::test_interlacing_reports_every_failure",
    ),
    # witnesses._certified: the check that makes a witness a certificate
    (
        WITNESSES,
        "    if laplacian_apply(g, entries) != entries:",
        "    if False:",
        "_certified skips its L v = v check",
        "tests/test_witnesses.py::TestCertified::test_rejects_a_vector_that_is_not_an_eigenvector[eigenvalue-0]",
    ),
]


def apply(root: Path, mutant: tuple) -> None:
    """Write mutant into the copy at root; old must occur there exactly once."""
    file, old, new = mutant[:3]
    path = root / file
    text = path.read_text()
    if text.count(old) != 1:
        raise ValueError(f"{file}: the mutant's old text occurs {text.count(old)} times")
    path.write_text(text.replace(old, new))


def _pytest(root: Path, env: dict, args: list[str]) -> tuple[int, str, float]:
    """(exit code, first failing test, seconds) of PYTEST plus args at root."""
    start = time.perf_counter()
    proc = subprocess.run(PYTEST + args, cwd=root, env=env, capture_output=True, text=True)
    seconds = time.perf_counter() - start
    # the id runs to its first space, but a parametrized id's [...] may hold spaces
    failed = re.search(r"^(?:FAILED|ERROR) ([^\s\[]+(?:\[[^\]]*\])?)", proc.stdout, re.MULTILINE)
    if failed:
        first = failed.group(1)
    else:
        first = (proc.stdout.strip().splitlines() or proc.stderr.strip().splitlines() or [""])[-1]
    return proc.returncode, first, seconds


def run(mutant: tuple | None) -> tuple[int, str, float, bool]:
    """(exit code, first failing test, seconds, whether the recorded killer
    alone killed) of PYTEST in a fresh copy of src/ and tests/ with mutant
    applied (None: unmutated). The killer runs first; the whole suite runs
    only when it passes."""
    with tempfile.TemporaryDirectory(prefix="unilap-mutant-") as tmp:
        root = Path(tmp)
        # test_mutants.py stays out: in a mutated copy it fails by design
        skip = shutil.ignore_patterns(
            "__pycache__", ".hypothesis", ".pytest_cache", "test_mutants.py"
        )
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, root / part, ignore=skip)
        if mutant is not None:
            apply(root, mutant)
        env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
        where = [sys.executable, "-c", "import unilap; print(unilap.__file__)"]
        imported = subprocess.run(where, cwd=root, env=env, capture_output=True, text=True)
        if not imported.stdout.startswith(str(root)):
            raise RuntimeError(f"the copy imports unilap from {imported.stdout or imported.stderr}")
        seconds = 0.0
        if mutant is not None:
            code, first, seconds = _pytest(root, env, [mutant[4]])
            # 1: a test failed; 2: a collection error stopped the run. A
            # killer that passes, or that pytest cannot find (4), kills nothing.
            if code in (1, 2):
                return code, first, seconds, True
        code, first, more = _pytest(root, env, [])
        return code, first, seconds + more, False


def main() -> int:
    start = time.perf_counter()
    code, summary, seconds, _ = run(None)
    if code != 0:
        print(f"the unmutated suite does not pass (exit {code}): {summary}")
        return 2
    print(f"unmutated: passed in {seconds:.1f} s; {len(MUTANTS)} mutants")
    survivors = 0
    for k, mutant in enumerate(MUTANTS, 1):
        code, first, seconds, by_killer = run(mutant)
        if not by_killer:
            print(f"   the recorded killer {mutant[4]} no longer kills; ran the whole suite")
        survivors += code == 0
        verdict = "survived" if code == 0 else "killed  "
        print(f"{k:2d} {verdict} {seconds:5.1f} s  {mutant[3]}  [{first}]", flush=True)
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} killed "
          f"in {time.perf_counter() - start:.0f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
