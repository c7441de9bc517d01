"""Checks that must survive `python -O`, and rules read off the source.

The package states its invariants and input checks as explicit raises, so
no `assert` statement may appear in it, and each input check below must
raise ValueError.  The Philox counter reset of the coupled pass has one
home, _Realization._seek, which reuses a single state dict, so nothing
else in the package may assign a bit generator's state.  Random streams
have one constructor, hitting._stream, so nothing else in the package
builds a Philox or a SeedSequence: the coupled realization takes its
stream from _stream too and reads the key back for _seek.  Every memory
SimResourceError is raised by sim._check_bytes, so the error is built only
there, in the int32 range check of _TreeTable.__init__ and in the coupled
pass's walk step guard.  run_frog's dense neighbor table has one
allocation path, so _TreeTable binds its nbr only in __init__ (the spare
or an empty array) and in _grow, whose charge every row passes.  Integer
inputs have one rule, tree._check_int, so nothing else in the package
tests isinstance(_, int) or names __index__ or operator.index; real
inputs have one rule, tree._check_real, so no other function in the
package calls float() on one of its own parameters.  The complement
1 - pgf(1 - z) has one home, InitLaw.cpgf, whose closed forms keep full
precision at small z, so nothing else in the package names a law's pgf,
to call it or to pass it on, where that complement could be formed again
with cancellation.
Killed walks have one kernel, hitting._distance_chain, so every `while`
loop in the package sits there, in the path-open tables' fill or in the
coupled pass: no Monte Carlo oracle grows a walk loop of its own.
The count of settable values is pinned, so a change that adds or removes
one must update SETTABLE_VALUES and say why.  Every module of the package
and of the tests reads each name it imports, bar the package's __init__.py,
whose imports are its re-exports, and __future__ imports.  Every public
function, class and constant a module of the package defines is read by
some module of the package other than __init__.py, bar the names in
_UNREAD_PUBLIC, each with its reason: no public name serves the tests
alone.  No function of the package mutates module-level state, by a
mutating method call, an item or attribute store or deletion on a name
bound at module level, or a global statement, so tables such as
checks.SUITES, laws._LAWS and bounds.TABLE_REFERENCE stay read-only; the
one exception is the pool of sim's spare neighbor table, which
_TreeTable takes from and hands back to.
"""

import ast
import json
import math
from dataclasses import asdict
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import bifrog
from bifrog.bounds import (bounds_report, disk_mean_offspring, lb_alves, lb_biregular,
                           ub_root_n)
from bifrog.hitting import hitting_pair, mc_hit_neighbor
from bifrog.laws import _POISSON_MU_MAX, Bernoulli, Constant, Poisson, parse_law
from bifrog.pathprob import (PathOpenQuery, PathOpenTables, bernoulli_path_open,
                             mc_path_open)
from bifrog.sim import (SimConfig, coupled_thresholds, estimate_survival, gw_progeny_masses,
                        mc_range_vs_disk, wilson_interval)
from bifrog.tree import TreeParams

T23 = TreeParams(2, 3)
LAW = Poisson(1.0)
CFG = SimConfig(tree=T23, law=LAW, p=0.5)
#: defaulted parameters, **kwargs, defaulted dataclass fields and
#: add_argument call sites over the package's modules
SETTABLE_VALUES = 29


def _package_sources():
    for path in sorted(Path(bifrog.__file__).parent.glob("*.py")):
        yield path.name, ast.parse(path.read_text(), filename=str(path))


def test_package_has_no_assert_statements():
    found = []
    for name, tree in _package_sources():
        found += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def _sites(node, match, where=()):
    """Dotted names of the functions and classes around each node for
    which match(node) holds, one entry per such node."""
    found = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found += _sites(child, match, (*where, child.name))
            continue
        if match(child):
            found.append(".".join(where))
        found += _sites(child, match, where)
    return found


def _assigns_state(node):
    """An assignment with an attribute named `state` among its targets."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    else:
        return False
    return any(isinstance(n, ast.Attribute) and n.attr == "state"
               for t in targets for n in ast.walk(t))


def _name(node):
    """The name a Name or Attribute node ends in, else None."""
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def _builds_stream(node):
    """A call of anything named Philox or SeedSequence, as
    np.random.Philox(...) or Philox(...)."""
    return isinstance(node, ast.Call) and _name(node.func) in ("Philox", "SeedSequence")


def test_only_seek_assigns_the_philox_state():
    probe = ast.parse("class A:\n    def f(self, g):\n"
                      "        if g:\n            g.bit_generator.state = {}\n")
    assert _sites(probe, _assigns_state) == ["A.f"]
    found = [f"{name}:{where}" for name, tree in _package_sources()
             for where in _sites(tree, _assigns_state)]
    assert found == ["sim.py:_Realization._seek"]


def test_only_the_stream_helper_builds_a_stream():
    probe = ast.parse("import numpy as np\nfrom numpy.random import Philox\n"
                      "def f(s):\n    return np.random.Philox(s), [Philox(s)]\n"
                      "class A:\n    k = np.random.SeedSequence(1).generate_state(2)\n")
    assert _sites(probe, _builds_stream) == ["f", "f", "A"]
    found = [f"{name}:{where}" for name, tree in _package_sources()
             for where in _sites(tree, _builds_stream)]
    # its Philox and its SeedSequence
    assert found == ["hitting.py:_stream"] * 2


def _builds_resource_error(node):
    """A call of anything named SimResourceError, as sim.SimResourceError(...)
    or SimResourceError(...)."""
    return isinstance(node, ast.Call) and _name(node.func) == "SimResourceError"


def test_resource_errors_are_built_in_three_places():
    probe = ast.parse("from bifrog import sim\nfrom bifrog.sim import SimResourceError\n"
                      "def f(n):\n    if n:\n        raise sim.SimResourceError(n)\n"
                      "    return SimResourceError\n"
                      "class A:\n    def g(self):\n        return [SimResourceError('x')]\n")
    assert _sites(probe, _builds_resource_error) == ["f", "A.g"]
    found = [f"{name}:{where}" for name, tree in _package_sources()
             for where in _sites(tree, _builds_resource_error)]
    # every memory error, the int32 range of a store's ids, the walk step guard
    assert found == ["sim.py:_check_bytes", "sim.py:_TreeTable.__init__",
                     "sim.py:_replica_threshold"]


def _binds_nbr(node):
    """An attribute named nbr bound as a whole, as self.nbr = ... or
    t.nbr += ...; a store into its items, as self.nbr[k] = ..., is none."""
    return (isinstance(node, ast.Attribute) and node.attr == "nbr"
            and isinstance(node.ctx, ast.Store))


def test_only_the_constructor_and_grow_bind_the_neighbor_table():
    probe = ast.parse("class A:\n    def f(self, k):\n        self.nbr[k] = self.nbr\n"
                      "        self.nbr, n = k, 1\n        self.nbr += k\n"
                      "def g(t, x):\n    for t.nbr in x:\n        pass\n    return t.nbr\n")
    assert _sites(probe, _binds_nbr) == ["A.f", "A.f", "g"]
    found = [f"{name}:{where}" for name, tree in _package_sources()
             for where in _sites(tree, _binds_nbr)]
    # the spare or _EMPTY, then _extended's charged growth
    assert found == ["sim.py:_TreeTable.__init__", "sim.py:_TreeTable._grow"]
    # and no other array is made for it there, as a fresh np.zeros
    [sim_tree] = [tree for name, tree in _package_sources() if name == "sim.py"]
    values = [n.value for n in ast.walk(sim_tree) if isinstance(n, ast.Assign)
              and any(_binds_nbr(x) for t in n.targets for x in ast.walk(t))]
    calls = [_name(c.func) for v in values for c in ast.walk(v) if isinstance(c, ast.Call)]
    assert sorted(calls) == ["_extended", "pop"]


def _tests_for_an_integer(node):
    """isinstance(_, int), isinstance(_, (..., int, ...)), or any mention of
    __index__ or operator.index."""
    if isinstance(node, ast.Call) and _name(node.func) == "isinstance" and len(node.args) == 2:
        kinds = node.args[1]
        kinds = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
        return any(_name(k) == "int" for k in kinds)
    if isinstance(node, ast.Attribute) and node.attr == "index":
        return _name(node.value) == "operator"
    return _name(node) == "__index__" or (isinstance(node, ast.Constant)
                                           and node.value == "__index__")


def test_only_check_int_tests_for_an_integer():
    probe = ast.parse("import operator\n"
                      "def f(x):\n    return isinstance(x, int) or isinstance(x, (str, int))\n"
                      "class A:\n    def g(self, x):\n        return hasattr(x, '__index__')\n"
                      "    def h(self, x):\n        return x.__index__() + operator.index(x)\n")
    assert _sites(probe, _tests_for_an_integer) == ["f", "f", "A.g", "A.h", "A.h"]
    found = [f"{name}:{where}" for name, tree in _package_sources()
             for where in _sites(tree, _tests_for_an_integer)]
    # its operator.index
    assert found == ["tree.py:_check_int"]


def _names_pgf(node):
    """An attribute named pgf, called as law.pgf(s) or passed on as a value
    as T(law.pgf); a method defined as pgf is not one."""
    return isinstance(node, ast.Attribute) and node.attr == "pgf"


def test_only_the_cpgf_fallback_calls_a_law_pgf():
    probe = ast.parse("def f(law, z):\n    return 1.0 - law.pgf(1.0 - z)\n"
                      "class A:\n    def g(self, c, law):\n"
                      "        return c(0.5), T(law.pgf), self.cpgf(0.5)\n"
                      "    def pgf(self, s):\n        return s\n")
    assert _sites(probe, _names_pgf) == ["f", "A.g"]
    found = [f"{name}:{where}" for name, tree in _package_sources()
             for where in _sites(tree, _names_pgf)]
    # the plain form left to a law defined elsewhere
    assert found == ["laws.py:InitLaw.cpgf"]


def test_only_the_kernel_the_tables_and_the_coupled_pass_loop_with_while():
    probe = ast.parse("def f(x):\n    while x:\n        x -= 1\n"
                      "class A:\n    def g(self):\n        for _ in ():\n"
                      "            while True:\n                break\n")
    assert _sites(probe, lambda n: isinstance(n, ast.While)) == ["f", "A.g"]
    found = sorted({f"{name}:{where}" for name, tree in _package_sources()
                    for where in _sites(tree, lambda n: isinstance(n, ast.While))})
    assert found == ["hitting.py:_distance_chain", "pathprob.py:PathOpenTables._require",
                     "sim.py:_replica_threshold"]


def _floats_a_parameter(node, where=(), params=frozenset()):
    """Dotted names of the functions that call float() on one of their own
    parameters, one entry per such call; a nested function or class sees
    only its own parameters."""
    found = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            own = frozenset()
            if not isinstance(child, ast.ClassDef):
                a = child.args
                own = {x.arg for x in (*a.posonlyargs, *a.args, *a.kwonlyargs,
                                       a.vararg, a.kwarg) if x is not None}
            found += _floats_a_parameter(child, (*where, child.name), own)
            continue
        if (isinstance(child, ast.Call) and _name(child.func) == "float"
                and any(isinstance(a, ast.Name) and a.id in params for a in child.args)):
            found.append(".".join(where))
        found += _floats_a_parameter(child, where, params)
    return found


def test_only_check_real_floats_a_parameter():
    probe = ast.parse("def f(x, /, y, *, z, **kw):\n"
                      "    return float(x) + float(y) + float(z) + float(kw) + float(w)\n"
                      "class A:\n    v = 1.0\n    def g(self, v):\n"
                      "        return float(self.v), float(v), [float(u) for u in v]\n"
                      "    def h(self, w):\n        def inner(u):\n"
                      "            return float(u) + float(w)\n        return inner\n")
    assert _floats_a_parameter(probe) == ["f"] * 4 + ["A.g", "A.h.inner"]
    found = [f"{name}:{where}" for name, tree in _package_sources()
             for where in _floats_a_parameter(tree)]
    assert found == ["tree.py:_check_real"]


def _unused_imports(tree):
    """Names a module imports and never reads, in the order of the imports;
    `import a.b` binds a, and __future__ imports bind nothing."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in read]


def test_every_module_reads_its_imports():
    probe = ast.parse("from __future__ import annotations\nimport os, os.path as osp\n"
                      "import numpy.random\nfrom math import pi, tau as t\n"
                      "def f(x: np.ndarray):\n    return numpy.random, tau, t\n")
    assert _unused_imports(probe) == ["os", "osp", "pi"]
    tests = [(f"tests/{path.name}", ast.parse(path.read_text(), filename=str(path)))
             for path in sorted(Path(__file__).parent.glob("*.py"))]
    found = [f"{name}:{unused}"
             for name, tree in [*_package_sources(), *tests] if name != "__init__.py"
             for unused in _unused_imports(tree)]
    assert found == []


def _public_definitions(tree):
    """Public names a module defines at its top level, as a function, a
    class or an assigned constant, in source order."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [t.id for t in targets if isinstance(t, ast.Name)]
    return [name for name in found if not name.startswith("_")]


def _reads(tree):
    """Names a module reads, as a loaded Name or as an attribute."""
    return {_name(n) for n in ast.walk(tree)
            if isinstance(n, ast.Attribute)
            or (isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load))}


#: public names that no module of the package reads, with the reason each stays
_UNREAD_PUBLIC = {
    "tree.py:ROOT": "the root's tuple address, where the tests' tree oracle starts",
    "tree.py:neighbors": "the tests' oracle for the simulator's three tree stores, "
                         "which must share no code with them",
}


def test_every_public_name_has_a_reader_in_the_package():
    probe = ast.parse("import os\nA = 1\nB: int = 2\n_c = 3\ndef f():\n    return A\n"
                      "class K:\n    x = 1\n    def g(self):\n        return self.B, os\n")
    assert _public_definitions(probe) == ["A", "B", "f", "K"]
    assert [n for n in _public_definitions(probe) if n not in _reads(probe)] == ["f", "K"]
    modules = [(name, tree) for name, tree in _package_sources() if name != "__init__.py"]
    read = set().union(*(_reads(tree) for _, tree in modules))
    found = [f"{name}:{defined}" for name, tree in modules
             for defined in _public_definitions(tree) if defined not in read]
    assert found == list(_UNREAD_PUBLIC)


#: method names that change the object they are called on
_MUTATORS = frozenset({"append", "extend", "insert", "pop", "remove", "clear", "update",
                       "setdefault", "popitem", "add", "discard", "sort", "reverse",
                       "fill", "resize", "put", "__setitem__", "__delitem__"})


def _root(node):
    """The Name at the root of an attribute or subscript chain, else None."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _module_names(tree):
    """(names a module binds at top level by assignment, names it binds
    there by any means: assignment, definition or import)."""
    data, bound = set(), set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {a.asname or a.name.partition(".")[0] for a in node.names}
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            data |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return data, bound | data


def _mutates_module_state(node, data, bound, where=()):
    """Dotted names of the functions that mutate module-level state, one
    entry per site: a global statement, an attribute or item store or
    deletion on a name in bound, or a mutating method call on a name in
    data or on an attribute or item of a name in bound (np.sort(a) is no
    method of np).  A name a function binds itself, as a parameter or by
    a store, is its own."""
    found = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = child.args
            own = {x.arg for x in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg)
                   if x is not None}
            own |= {n.id for n in ast.walk(child)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
            found += _mutates_module_state(child, data - own, bound - own, (*where, child.name))
            continue
        if isinstance(child, ast.ClassDef):
            found += _mutates_module_state(child, data, bound, (*where, child.name))
            continue
        targets = []
        if isinstance(child, (ast.Assign, ast.Delete)):
            targets = child.targets
        elif isinstance(child, (ast.AugAssign, ast.AnnAssign)):
            targets = [child.target]
        stores = [n for t in targets for n in ast.walk(t)
                  if isinstance(n, (ast.Attribute, ast.Subscript))
                  and not isinstance(n.ctx, ast.Load)]
        hit = isinstance(child, ast.Global) or any(_root(n) in bound for n in stores)
        if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                and child.func.attr in _MUTATORS):
            obj = child.func.value
            hit |= obj.id in data if isinstance(obj, ast.Name) else _root(obj) in bound
        if where and hit:
            found.append(".".join(where))
        found += _mutates_module_state(child, data, bound, where)
    return found


#: the one exception: sim's pool of one spare neighbor table, which a
#: dense _TreeTable takes from and run_frog hands the run's table back to,
#: so that a sweep's runs reuse one zeroed table
_SPARE_POOL_SITES = ["sim.py:_TreeTable.__init__", "sim.py:_TreeTable.release"]


def test_no_function_mutates_module_state_but_the_spare_pool():
    probe = ast.parse("import numpy as np\nfrom . import checks\nPOOL = []\nT = {}\n"
                      "def f(x):\n    POOL.append(x)\n    T[x] = 1\n    del T[x]\n"
                      "    checks.SUITES['x'] = x\n    checks.SUITES.update(x)\n"
                      "    return np.sort(x), T.get(x), POOL[-1]\n"
                      "class A:\n    def g(self, T):\n        T[1] = self.n = 2\n"
                      "        POOL = []\n        POOL.append(T)\n"
                      "    def h(self):\n        global POOL\n        POOL = None\n"
                      "        self.x = [n.pop() for n in T]\n"
                      "        np.random.seed = 0\n        T[0] += 1\n")
    assert _mutates_module_state(probe, *_module_names(probe)) == ["f"] * 5 + ["A.h"] * 3
    found = [f"{name}:{where}" for name, tree in _package_sources()
             for where in _mutates_module_state(tree, *_module_names(tree))]
    assert found == _SPARE_POOL_SITES


def _is_dataclass(node):
    return any(_name(d.func if isinstance(d, ast.Call) else d) == "dataclass"
               for d in node.decorator_list)


def _settable(tree):
    """Defaulted positional and keyword-only parameters, **kwargs, defaulted
    fields of @dataclass classes and add_argument call sites in tree."""
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            count += (len(args.defaults) + sum(d is not None for d in args.kw_defaults)
                      + (args.kwarg is not None))
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            count += sum(isinstance(s, ast.AnnAssign) and s.value is not None
                         for s in node.body)
        elif isinstance(node, ast.Call):
            count += _name(node.func) == "add_argument"
    return count


def test_settable_values_are_counted():
    probe = ast.parse("import dataclasses\nfrom dataclasses import dataclass\n"
                      "@dataclass(frozen=True)\nclass C:\n    x: int\n    y: int = 0\n"
                      "@dataclasses.dataclass\nclass D:\n    z: int = 1\n"
                      "class E:\n    w: int = 2\n"
                      "def f(a, b=1, *, c=2, d, **kw):\n    ap.add_argument('--x')\n")
    assert _settable(probe) == 6  # y, z, b, c, kw and --x
    assert sum(_settable(tree) for _, tree in _package_sources()) == SETTABLE_VALUES


def test_hitting_pair_raises_on_a_negative_discriminant():
    # no tree has kappa = 1 at d1 = d2 = 2; the check must still fire
    fake = SimpleNamespace(d1=2, d2=2, kappa=1)
    with pytest.raises(RuntimeError, match="discriminant"):
        hitting_pair(fake, 0.5)


@pytest.mark.parametrize("call", [
    lambda: mc_range_vs_disk(T23, LAW, 0.5, k=0, trials=10),
    lambda: mc_range_vs_disk(T23, LAW, 0.5, k=1, trials=0),
    lambda: mc_range_vs_disk(T23, LAW, 0.5, k=1, trials=10, start_type=3),
    lambda: mc_hit_neighbor(T23, 0.5, start_type=0, trials=10),
    lambda: mc_hit_neighbor(T23, 0.5, start_type=1, trials=0),
    lambda: mc_path_open(PathOpenQuery(1, 2, 1), T23, LAW, 0.5, trials=0),
    lambda: gw_progeny_masses(T23, LAW, 0.5, parent_type=3),
    lambda: ub_root_n(T23, 1.0, 0),
    lambda: disk_mean_offspring(LAW, 0, 0.1),
    lambda: bernoulli_path_open(0, 0.5, 0.3, 0.3),
    lambda: bernoulli_path_open(1, 0.0, 0.3, 0.3),
    lambda: PathOpenTables(Constant(1).cpgf, 0.3, 0.3, k_max=8).same_11(5),
    lambda: SimConfig(tree=T23, law=LAW, p=0.5, horizon=2.5),
    lambda: SimConfig(tree=T23, law=LAW, p=0.5, awake_cap=2.5),
    lambda: SimConfig(tree=T23, law=LAW, p=0.5, awake_cap=True),
    lambda: SimConfig(tree=T23, law=LAW, p=0.5, seed=-1),
    lambda: SimConfig(tree=T23, law=LAW, p=0.5, seed="1"),
    lambda: SimConfig(tree=T23, law=LAW, p=0.5, replica_index=1.5),
    lambda: SimConfig(tree=T23, law=LAW, p=0.5, replica_index=-1),
    lambda: TreeParams(True, 2),
    lambda: Constant(True),
    lambda: bernoulli_path_open(2.5, 0.5, 0.3, 0.3),
    lambda: PathOpenTables(Constant(1).cpgf, 0.3, 0.3, k_max=2.5),
    lambda: estimate_survival(CFG, True),
    lambda: estimate_survival(CFG, 2.5),
    lambda: coupled_thresholds(CFG, 0.9, 2.5),
    lambda: PathOpenQuery(1, 2, True),
    lambda: PathOpenQuery(1, 2, 3.0),
    lambda: mc_hit_neighbor(T23, 0.5, 1, 2.5),
    lambda: mc_hit_neighbor(T23, 0.5, 1, 10, seed=2.5),
    lambda: parse_law("poisson:inf"),
    lambda: lb_biregular(T23, math.inf),
    lambda: SimConfig(tree=T23, law=LAW, p="0.5"),
    lambda: SimConfig(tree=T23, law=LAW, p=True),
    lambda: Bernoulli(True),
    lambda: hitting_pair(T23, "0.8"),
    lambda: Bernoulli("0.5"),
    lambda: coupled_thresholds(CFG, "0.5", 1),
    lambda: PathOpenTables(Constant(1).cpgf, "0.3", 0.3, k_max=2),
    lambda: TreeParams(np.array(2.5), 2),
    lambda: bernoulli_path_open(1, 0.5, "0.3", 0.3),
    lambda: bernoulli_path_open(1, 0.5, 0.3, 1.5),
    lambda: Poisson(10 ** 400),
    lambda: Poisson(1j),
    lambda: Poisson(math.nextafter(_POISSON_MU_MAX, math.inf)),
    lambda: Constant(2 ** 63),
    lambda: parse_law("const:" + "9" * 401),
    lambda: wilson_interval(5, 3),
    lambda: wilson_interval(2.5, 4),
    lambda: wilson_interval(True, 3),
    lambda: wilson_interval(0, 0),
], ids=[
    "range-k0", "range-trials0", "range-type3", "hit-type0", "hit-trials0",
    "path-trials0", "gw-type3", "f_n-n0", "disk-big_d0",
    "bernoulli-n0", "bernoulli-q0", "tables-past-k_max",
    "config-horizon-float", "config-cap-float", "config-cap-bool", "config-seed-negative",
    "config-seed-str", "config-replica-float", "config-replica-negative",
    "tree-d1-bool", "constant-bool", "bernoulli-n-float", "tables-k_max-float",
    "survival-replicas-bool", "survival-replicas-float", "coupled-replicas-float",
    "query-k-bool", "query-k-float", "hit-trials-float", "hit-seed-float",
    "poisson-mu-inf", "lb_biregular-mean-inf", "config-p-str", "config-p-bool",
    "bernoulli-prob-bool", "hitting-p-str", "bernoulli-prob-str", "coupled-p_max-str",
    "tables-a-str", "tree-d1-float-array", "bernoulli-a-str", "bernoulli-b-above-1",
    "poisson-mu-past-float-range", "poisson-mu-complex",
    "poisson-mu-past-sampler", "constant-k-past-int64", "constant-spec-past-float-range",
    "wilson-successes-above-n", "wilson-successes-float", "wilson-successes-bool",
    "wilson-n0",
])
def test_input_checks_raise_value_error(call):
    with pytest.raises(ValueError):
        call()


def test_numpy_integers_are_taken_and_stored_as_int():
    t = TreeParams(np.int64(2), np.int64(3))
    assert t == TreeParams(2, 3)
    assert type(t.d1) is int and type(t.d2) is int
    law = Constant(np.int64(2))
    assert law == Constant(2) and type(law.k) is int and type(law.support_max) is int
    assert lb_alves(np.int64(3), 1.0) == lb_alves(3, 1.0)
    assert ub_root_n(T23, 1.0, np.int64(3)) == ub_root_n(T23, 1.0, 3)
    json.dumps(asdict(bounds_report(TreeParams(np.int64(2), 2), Constant(1))))


def test_reals_are_taken_and_stored_as_float():
    for x in (np.float64(0.5), np.float32(0.5), 1):
        want = float(x)
        stored = (Poisson(x).mu, Bernoulli(x).prob, SimConfig(tree=T23, law=LAW, p=x).p,
                  PathOpenTables(Constant(1).cpgf, x, 0.3, k_max=2).a)
        assert all(type(v) is float and v == want for v in stored), (x, stored)
    assert repr(Poisson(np.float64(1.5))) == "Poisson(mu=1.5)"
