"""A fixed table of source mutants, and a runner that checks the suite kills each one.

Each entry is (file, old, new, what it breaks): old must occur exactly once
in file (tests/test_mutants.py checks that), and the mutant is that file
with old replaced by new. The table covers every function on the routes
that the retired test oracles used to guard: the pivot fold and cycle
closers of linalg, the leaf strip, the fold at 1, the cycle reach, the
diameter's ends, the diametral path and the core of graphs, both
determinant routes of charpoly, the necklace walk and the class builder of
enumeration, the main bound, the strengthened-compass predicate and the
verdicts of bounds, the exhaustive suite's failure list, the interlacing
chain, Graph's int check on vertex ids, the family generators, and the
L v = v check of the witnesses.

Run from anywhere, with no arguments:

    python tests/mutants.py

It first runs the unmutated suite in a scratch copy of src/ and tests/ (a
failure there stops it), then, for each mutant, a fresh copy with the
mutant applied, through

    python -m pytest -x -q -p no:cacheprovider --hypothesis-seed=0

and prints killed or survived with the first failing test. It exits 1 if
any mutant survives. The copies leave out tests/test_mutants.py, which
fails on any mutated source by design, and each checks that it imports
unilap from its own src/, ahead of any installed copy. A copy takes up to
one tier-1 run; most mutants die within seconds.
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
    ),
    (
        LINALG,
        "            pos += 1\n            touched = _eliminate_block",
        "            pos += 2\n            touched = _eliminate_block",
        "sparse_inertia counts two positives for a 2x2 block",
    ),
    (
        LINALG,
        "            if rows[pivot][pivot] > 0:",
        "            if rows[pivot][pivot] < 0:",
        "sparse_inertia swaps the sign of every 1x1 pivot",
    ),
    # linalg._cycle_inertia: an intact cycle's closing continuant
    (
        LINALG,
        "- 2 * q**r * math.prod(dens)",
        "- q**r * math.prod(dens)",
        "_cycle_inertia drops the factor 2 of the periodic term",
    ),
    (
        LINALG,
        "    t = nums[r - 1] * f_prev - e * w_prev",
        "    t = nums[r - 1] * f_prev + e * w_prev",
        "_cycle_inertia takes the wrong sign of the trailing Schur block",
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
    ),
    (
        LINALG,
        FOLD_PIVOTS + PAIRED + "            zero += zero_children[x] - 1\n",
        FOLD_PIVOTS + PAIRED + "            zero += zero_children[x]\n",
        "_fold_pivots counts every zero child as a zero, the paired one too",
    ),
    # linalg._close_cycle: a cut cycle folds as a path, an intact one by _cycle_inertia
    (
        LINALG,
        "    for x, u in zip(path, path[1:]):",
        "    for x, u in zip(path, path[-1:] + path[:-2]):",
        "_close_cycle folds each vertex of a cut cycle into the one before it",
    ),
    (
        LINALG,
        "        nums = [num[v] if den[v] > 0 else -num[v] for v in cycle]",
        "        nums = [num[v] for v in cycle]",
        "_close_cycle passes pivots with a negative den to _cycle_inertia unsigned",
    ),
    (
        LINALG,
        "            return int(a < 0), int(not a), int(a > 0)",
        "            return int(a <= 0), 0, int(a > 0)",
        "_close_cycle counts a tree's zero root as a negative",
    ),
    # graphs._cycle_forest: the leaf strip every route reads
    (
        GRAPHS,
        "        for v in adj[start]:  # a loop",
        "        for v in reversed(adj[start]):  # a loop",
        "_cycle_forest walks the cycle towards the larger neighbour first",
    ),
    (
        GRAPHS,
        "    if max(left) > 2:\n        return None",
        "    if max(left) > 3:\n        return None",
        "_cycle_forest takes a 2-core with a degree-3 vertex for disjoint cycles",
    ),
    (
        GRAPHS,
        "            cycles.append([x])\n",
        "            pass\n",
        "_cycle_forest drops every tree's root",
    ),
    (
        GRAPHS,
        "    if forest is None or len(forest[2][0]) == 1:",
        "    if forest is None:",
        "_unicyclic_strip accepts a tree",
    ),
    # graphs._pendant_pass: the fold at 1 (pivots, domination states, heights)
    (
        GRAPHS,
        "            neg += (t > 0) is not (s > 0)",
        "            neg += (t > 0) is (s > 0)",
        "_pendant_pass counts the positive pivots as negatives",
    ),
    (
        GRAPHS,
        "        a[u] += dom if dom < cx else cx",
        "        a[u] += dom",
        "_pendant_pass never lets a child of a vertex in D go undominated",
    ),
    (
        GRAPHS,
        "        b[u] = via_child if via_child < via_x else via_x",
        "        b[u] = via_x",
        "_pendant_pass keeps only one way of dominating a vertex by a child",
    ),
    (
        GRAPHS,
        "            down[u], second[u], lo[u] = h, down[u], lo[x]",
        "            down[u], second[u], lo[u] = h, second[u], lo[x]",
        "_pendant_pass does not demote the old height to the runner-up",
    ),
    (
        GRAPHS,
        "            if h == down[u] and lo[x] < lo[u]:",
        "            if h == down[u] and lo[x] > lo[u]:",
        "_pendant_pass keeps the largest deepest label on a tie",
    ),
    (
        GRAPHS,
        "        elif h >= second[u]:",
        "        elif h > second[u]:",
        "_pendant_pass ignores a third branch tied at the greatest depth",
    ),
    # graphs._cycle_gamma: gamma closed by one walk with three triples
    (
        GRAPHS,
        "    return min(pa, pb, fa, la, lb, lc)",
        "    return min(pa, pb, la, lb, lc)",
        "_cycle_gamma drops the run with c_0 in D",
    ),
    (
        GRAPHS,
        "    fa, fb, fc = pa, pb if pb < pc else pc, inf",
        "    fa, fb, fc = pa, pb, inf",
        "_cycle_gamma forgets that c_0 in D dominates c_{r-1}",
    ),
    (
        GRAPHS,
        "        pa, pb, pc = av + (dom if dom < pc else pc)",
        "        pa, pb, pc = av + (dom if dom > pc else pc)",
        "_cycle_gamma takes the larger state for a vertex in D on the plain run",
    ),
    # graphs._cycle_reach: every cycle vertex's farthest reach round the cycle
    (
        GRAPHS,
        "    for p in range(s - 1, s - r, -1):",
        "    for p in range(s - 1, s - 1, -1):",
        "_cycle_reach drops the backward pass",
    ),
    (
        GRAPHS,
        "    if far[m] == top:",
        "    if far[m] < top:",
        "_cycle_reach never recomputes the dominant index's own reach",
    ),
    (
        GRAPHS,
        "        x, y = heights[j], heights[j - odd]",
        "        x, y = heights[j], heights[j]",
        "_cycle_reach drops the second antipode on an odd cycle",
    ),
    # graphs._far_ends: the diameter and its smallest pair of ends. Left out
    # as equivalent: reading the apex sums only when 2 max H_i > d. When
    # 2 max H_i = d only an apex on the cycle, c_i with H_i the max, can
    # reach d, and then reach[i] = d, so lo[c_i] is a candidate already.
    (
        GRAPHS,
        "    if k + far[i] == d:",
        "    if k + far[i] > d:",
        "_far_ends never looks across the cycle for the second end",
    ),
    (
        GRAPHS,
        "    tight = _where(reach, d)",
        "    tight = _where(reach, d)[:1]",
        "_far_ends keeps only the first cycle vertex that reaches d",
    ),
    (
        GRAPHS,
        "        x, k, below, skip = parent[x], k + 1, down[x] + 1, lo[x]",
        "        x, k, below, skip = parent[x], k + 1, down[x] + 1, -1",
        "_far_ends may take the second end in the first end's own branch",
    ),
    # graphs._diametral_path: the smallest sequence from u to v
    (
        GRAPHS,
        "(2 * ahead == r and ring[-1] < ring[1])",
        "(2 * ahead == r and ring[-1] > ring[1])",
        "_diametral_path takes the other arc between antipodes on an even cycle",
    ),
    (
        GRAPHS,
        "        return tuple(climb[: rank[back[-1]]] + back[::-1])",
        "        return tuple(climb[: rank[back[-1]] + 1] + back[::-1])",
        "_diametral_path lists the meet of the two climbs twice",
    ),
    # graphs._reduce_to_core and the lazy core
    (
        GRAPHS,
        "(r + s + t, r, min(arc, r - arc), min(s, t))",
        "(r + s + t, r, min(arc, r - arc), max(s, t))",
        "_reduce_to_core reports the longer compass tail as t",
    ),
    (
        GRAPHS,
        "    if i != j:\n        s, t, arc",
        "    if True:\n        s, t, arc",
        "_reduce_to_core classifies a core whose ends share a pendant tree",
    ),
    (
        GRAPHS,
        "        for x in ends:\n            while x not in keep:",
        "        for x in ends[:1]:\n            while x not in keep:",
        "core_vertices keeps the first end's climb alone",
    ),
    # charpoly.charpoly_det_matrix: the Berkowitz recursion
    (
        CHARPOLY,
        "            q.append(-sum(map(mul, row, col)))",
        "            q.append(sum(map(mul, row, col)))",
        "charpoly_det_matrix flips the sign of every R A^j C term",
    ),
    (
        CHARPOLY,
        "        q, col = [1, -row[k]], [r[k] for r in rows[:k]]",
        "        q, col = [1, row[k]], [r[k] for r in rows[:k]]",
        "charpoly_det_matrix adds the new diagonal entry instead of subtracting it",
    ),
    # charpoly._forest_charpoly: the leaf-strip fold at x = 2^b
    (
        CHARPOLY,
        "        det *= closing - 2 * math.prod(den[v] for v in cycle)",
        "        det *= closing",
        "_forest_charpoly drops the 2 prod(dens) term of a cycle",
    ),
    (
        CHARPOLY,
        "    det = 1 if n % 2 == 0 else -1",
        "    det = 1",
        "_forest_charpoly drops the sign (-1)^n",
    ),
    (
        CHARPOLY,
        "    b = math.prod(d + 1 for d in diag).bit_length() + 1",
        "    b = math.prod(d + 1 for d in diag).bit_length()",
        "_forest_charpoly takes digits one bit too narrow",
    ),
    (
        CHARPOLY,
        "        if c >= half:",
        "        if c >= big:",
        "_forest_charpoly reads unsigned digits",
    ),
    (
        CHARPOLY,
        "times_den(last, times_den(prev, f_prev) + w)",
        "times_den(last, f_prev + w)",
        "_forest_charpoly closes a cycle with dens[r-1] alone on F_prev",
    ),
    (
        CHARPOLY,
        "            det *= num[cycle[0]]\n",
        "            det *= 1\n",
        "_forest_charpoly skips a tree root's factor",
    ),
    (
        CHARPOLY,
        "        return a if den[v] == 1 else den[v] * a",
        "        return a",
        "_forest_charpoly multiplies by every den as if it were 1",
    ),
    # enumeration._bracelets and _graph: one class per necklace
    (
        ENUMERATION,
        "max(a[t - p], a[1])",
        "max(a[t - p], a[1] + 1)",
        "_bracelets starts the last slot above a[1]",
    ),
    (
        ENUMERATION,
        "                if not any(rev[j] == a0 and rev[j:] + rev[:j] < a for j in range(r)):",
        "                if True:",
        "_bracelets keeps a necklace whose reversal has a smaller rotation",
    ),
    (
        ENUMERATION,
        "(0, r - 2) if i == r - 1",
        "(r - 2, 0) if i == r - 1",
        "_graph writes the last cycle vertex's neighbours unsorted",
    ),
    (
        ENUMERATION,
        "            up = parent + off if parent else i",
        "            up = parent + off if parent > 1 else i",
        "_graph hangs a tree vertex below the root's first child on the cycle",
    ),
    # bounds._verdicts: what analyze reports as checked
    (
        BOUNDS,
        '{"main_bound": count01 >= main}',
        '{"main_bound": count01 >= main - 1}',
        "_verdicts accepts count01 one below the main bound",
    ),
    (
        BOUNDS,
        'verdicts["hedetniemi"] = count01 <= gamma',
        'verdicts["hedetniemi"] = count01 <= gamma + 1',
        "_verdicts accepts count01 one above gamma",
    ),
    (
        BOUNDS,
        'verdicts["chain"] = d + 1 <= 3 * main and main <= count01 and count01 <= gamma',
        'verdicts["chain"] = True',
        "_verdicts passes the chain always",
    ),
    # bounds: the main bound and the strengthened-compass hypothesis
    (
        BOUNDS,
        "    return ceil_div(d, 3) + ceil_div(r, 6) - 1\n",
        "    return ceil_div(d, 3) + ceil_div(r, 6) - 2\n",
        "main_lower_bound returns one below the bound",
    ),
    (
        BOUNDS,
        "    return n % 3 == 0 and r % 6 == 0 and r_prime == r // 2 and t % 3 == 1",
        "    return False",
        "_strengthens never strengthens a compass",
    ),
    (
        BOUNDS,
        " or _strengthens(cn, cr, crp, cn - cr - ct)",
        "",
        "analyze tries only the core's t for the strengthened compass bound",
    ),
    # suite_exhaustive's failure list and the interlacing chain
    (
        HARNESS,
        "                        failures.append((name, n, g.edges()))",
        "                        pass",
        "suite_exhaustive drops its failures",
    ),
    (
        SPECTRA,
        "        a <= b + INTERLACING_SLACK and b <= c + INTERLACING_SLACK\n",
        "        a <= b + INTERLACING_SLACK\n",
        "_interlaces checks one side of the chain",
    ),
    # Graph's int check on n and every vertex id
    (
        GRAPHS,
        "                if type(w) is not int or not prev < w < n or w == v:",
        "                if not prev < w < n or w == v:",
        "Graph accepts a vertex id that is not an int",
    ),
    (
        GRAPHS,
        "            if not (type(u) is int and type(v) is int and 0 <= u < n and 0 <= v < n):",
        "            if not (0 <= u < n and 0 <= v < n):",
        "Graph.from_edges accepts an edge end that is not an int",
    ),
    # the family generators
    (
        GRAPHS,
        "    adj[r - 1] = (0,) + adj[r - 1]",
        "    adj[r - 1] = adj[r - 1] + (0,)",
        "make_lollipop writes vertex r-1's neighbours unsorted",
    ),
    (
        GRAPHS,
        "    adj[b] = (t, b - 1, b + 1)",
        "    adj[b] = (t, b - 1)",
        "make_compass leaves out the second tail's edge at the degree-3 end",
    ),
    (
        GRAPHS,
        "    adj[0] = adj[0][1:]\n",
        "    adj[0] = adj[0][:1] if n > 1 else adj[0][1:]\n",
        "_path_adj gives vertex 0 the neighbour -1",
    ),
    # witnesses._certified: the check that makes a witness a certificate
    (
        WITNESSES,
        "    if laplacian_apply(g, entries) != entries:",
        "    if False:",
        "_certified skips its L v = v check",
    ),
]


def apply(root: Path, mutant: tuple) -> None:
    """Write mutant into the copy at root; old must occur there exactly once."""
    file, old, new, _ = mutant
    path = root / file
    text = path.read_text()
    if text.count(old) != 1:
        raise ValueError(f"{file}: the mutant's old text occurs {text.count(old)} times")
    path.write_text(text.replace(old, new))


def run(mutant: tuple | None) -> tuple[int, str, float]:
    """(exit code, first failing test, seconds) of PYTEST run in a fresh copy
    of src/ and tests/ with mutant applied (None: unmutated)."""
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
        start = time.perf_counter()
        proc = subprocess.run(PYTEST, cwd=root, env=env, capture_output=True, text=True)
        seconds = time.perf_counter() - start
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.MULTILINE)
    if failed:
        first = failed.group(1)
    else:
        first = (proc.stdout.strip().splitlines() or proc.stderr.strip().splitlines() or [""])[-1]
    return proc.returncode, first, seconds


def main() -> int:
    code, summary, seconds = run(None)
    if code != 0:
        print(f"the unmutated suite does not pass (exit {code}): {summary}")
        return 2
    print(f"unmutated: passed in {seconds:.1f} s; {len(MUTANTS)} mutants")
    survivors = 0
    for k, mutant in enumerate(MUTANTS, 1):
        code, first, seconds = run(mutant)
        survivors += code == 0
        verdict = "survived" if code == 0 else "killed  "
        print(f"{k:2d} {verdict} {seconds:5.1f} s  {mutant[3]}  [{first}]", flush=True)
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
