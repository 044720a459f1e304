"""List the functions of src/hhglab that no command reaches, and the
parameter defaults that no caller overrides.

Runs every CLI command on the shipped structure files, and the library
calls the benchmark's geometry jobs make (``realize``, ``big_set``,
``tau0_floor_check``) together with ``realize`` and ``big_set`` on the
free product's cosets and the swapline fixture, in this process under
``sys.setprofile``.  Then it
prints each function or method defined in ``src/hhglab/*.py`` (found with
``ast``) that was never entered and is not on ALLOWED below.

The parameter census, also with ``ast`` only, looks at each parameter with
a default of a function or method in ``src/hhglab`` and the calls in
``src/``, ``benchmark/`` and ``scripts/``, matched by callee name (a class
name for ``__init__``).  It prints the parameters no call passes, by
keyword or by position: a default only tests override is an option no
command or job uses.  It also prints the defaults no call relies on, the
parameters every call passes: such a default repeats a value its callers
set.  A starred call counts as passing every parameter and as relying on
every default it does not pass by keyword.

The function list also names stale allowlist entries.  Exits 1 if anything
was printed.  Takes no options; runs for under a minute.

    python3 scripts/reachability.py
"""

import ast
import contextlib
import io
import pathlib
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hhglab"
sys.path.insert(0, str(ROOT / "src"))

import hhglab.cli  # noqa: E402
from hhglab.balls import symmetrize  # noqa: E402
from hhglab.builders import load_structure  # noqa: E402
from hhglab.classify import big_set, tau0_floor_check  # noqa: E402
from hhglab.coords import project_tuple, realize  # noqa: E402

# module.qualname -> why it stays although no command enters it
ABSTRACT = "abstract declaration every subclass overrides"
TRACED = "abstract declaration; benchmark/tracing.py wraps it by name"
ALLOWED = {
    "errors.CertifierRefutedError.__init__": "error-class constructor",
    "errors.ResourceBudgetError.__init__": "error-class constructor",
    "errors.StructureInvalidError.__init__": "error-class constructor",
    "groups.GroupModel.__repr__": "names the model in tracebacks and test failures",
    "groups.GroupModel._inverse": ABSTRACT,
    "groups.GroupModel._product": ABSTRACT,
    "groups.GroupModel._reduce": ABSTRACT,
    "groups.GroupModel.to_json": ABSTRACT,
    "spaces.PointSpace.geodesic":
        "Space interface; axiom 7 finds no pair of points in a one-point space",
    "spaces.Space.basepoint": ABSTRACT,
    "spaces.Space.contains": ABSTRACT,
    "spaces.Space.dist": TRACED,
    "spaces.Space.geodesic": ABSTRACT,
    "spaces.Space.sample_points": ABSTRACT,
    "structures.HHStructure._domain": ABSTRACT,
    "structures.HHStructure.act_on_domain": ABSTRACT,
    "structures.HHStructure.domains": ABSTRACT,
    "structures.HHStructure.relation": ABSTRACT,
    "structures.HHStructure.rho_point": TRACED,
    "structures.HHStructure.to_json": ABSTRACT,
}

CALLERS = ("src", "benchmark", "scripts")

STRUCTURES = sorted(p.stem for p in (ROOT / "structures").glob("*.json"))

CERTIFIES = (("free2", "a,b", 7), ("z2", "a,b", 6), ("f2xz", "a,b,t", 6),
             ("f2freez", "a,b,c", 6), ("f2xf2", "a,b,c,d", 6),
             ("free2", "ab,bab", 6), ("swapline", "t", 6), ("z1", "t", 6),
             ("f2xz", "a,b,t,ab", 5), ("f2freez", "a,b,ac", 6),
             ("f2freez", "a,b,c,aaacAAA", 6))

SCANS = (("free2", "--scan-size", "2", "--scan-length", "2"),
         ("free2", "--scan-size", "2", "--scan-length", "1", "--format", "json"),
         ("f2xz", "--scan-size", "1", "--scan-length", "1", "--growth-n", "4"))


def path(name):
    return str(ROOT / "structures" / f"{name}.json")


def commands():
    """Every CLI argv the sweep runs, without --out."""
    for name in STRUCTURES:
        yield ["decompose", name]  # by catalog name, not by file
        yield ["check", path(name), "--max-pairs", "500", "--seed", "0"]
        yield ["check", path(name), "--seed", "3"]
        yield ["decompose", path(name)]
        yield ["growth", path(name), "--n", "4"]
        yield ["distance", path(name), "--pairs", "20"]
    yield ["growth", path("free2"), "--n", "3", "--genset", "ab,b",
           "--symmetrize", "--format", "json"]
    for name, gens, depth in CERTIFIES:
        yield ["certify", path(name), "--genset", gens, "--depth", str(depth)]
    for name, *options in SCANS:
        yield ["scan", path(name), *options]


def geometry_jobs():
    """realize, big_set and tau0_floor_check as the geometry workload calls
    them, plus realize and big_set on f2freez (cosets, transverse pairs) and
    big_set on swapline (a domain fixed by a square only).  Returns
    [(job, json-ready report)]."""
    reports = []
    for name, radius, texts in (("f2xz", 4, ("1", "abt", "aBAt")),
                                ("f2freez", 3, ("1", "aC", "cbA"))):
        st = load_structure(path(name))
        for text in texts:
            tup = project_tuple(st, st.group.parse(text))
            reports.append((f"realize {name} {text}",
                            realize(st, tup, search_radius=radius).to_json(st.group)))
    f2xz = load_structure(path("f2xz"))
    model = f2xz.group
    for g_text, h_text in (("ab", "t"), ("t", "a")):
        g, h = model.parse(g_text), model.parse(h_text)
        reports.append((f"big_set f2xz {g_text}", big_set(f2xz, g).to_json(model)))
        reports.append((f"big_set f2xz conjugate {h_text} {g_text}",
                        big_set(f2xz, model.conjugate(h, g)).to_json(model)))
        for n in (2, 3):
            reports.append((f"big_set f2xz {g_text}^{n}",
                            big_set(f2xz, model.power(g, n)).to_json(model)))
    for name, texts in (("f2freez", ("a", "c", "caC", "acA", "ac", "aCbAc", "cbcAC")),
                        ("swapline", ("t", "tt", "TTT"))):
        st = load_structure(path(name))
        for text in texts:
            reports.append((f"big_set {name} {text}",
                            big_set(st, st.group.parse(text)).to_json(st.group)))
    for name in ("free2", "z1", "z2", "f2xz", "f2xf2", "f2freez"):
        st = load_structure(path(name))
        reports.append((f"tau0 {name}",
                        tau0_floor_check(st, symmetrize(st.group, st.group.generators()))))
    return reports


def package_functions():
    """(file, module.qualname, class, node) for every function or method
    defined in src/hhglab/*.py; class names the class a method is defined
    in, and is None for a function."""
    found = []
    for file in sorted(PACKAGE.glob("*.py")):

        def visit(node, prefix, cls):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = f"{prefix}.{child.name}"
                    found.append((file, name, cls, child))
                    visit(child, name, None)
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}.{child.name}", child.name)
                else:
                    visit(child, prefix, cls)

        visit(ast.parse(file.read_text()), file.stem, None)
    return found


def defined_functions():
    """{(file, first line of the code object): module.qualname}."""
    return {(str(file), min([node.lineno] + [d.lineno for d in node.decorator_list])):
            name for file, name, _, node in package_functions()}


def defaulted_parameters():
    """{callee.parameter: position} for every parameter with a default of a
    function or method in src/hhglab.  A method's positions leave out its
    first parameter; a keyword-only parameter has position None."""
    found = {}
    for _, _, cls, node in package_functions():
        a = node.args
        static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                     for d in node.decorator_list)
        shift = 1 if cls and not static else 0
        callee = cls if node.name == "__init__" else node.name
        positional = a.posonlyargs + a.args
        first = len(positional) - len(a.defaults)
        for i, arg in enumerate(positional[first:], first):
            found[f"{callee}.{arg.arg}"] = i - shift
        for arg, default in zip(a.kwonlyargs, a.kw_defaults):
            if default is not None:
                found[f"{callee}.{arg.arg}"] = None
    return found


def passed_parameters():
    """Calls in CALLERS by callee name: [(positional count, starred,
    keywords)], starred telling whether an argument is *args or **kwargs;
    the keywords leave a **kwargs out."""
    calls = {}
    for folder in CALLERS:
        for file in sorted((ROOT / folder).rglob("*.py")):
            for node in ast.walk(ast.parse(file.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = (func.id if isinstance(func, ast.Name)
                        else getattr(func, "attr", None))
                if name is None:
                    continue
                starred = (any(isinstance(x, ast.Starred) for x in node.args)
                           or any(k.arg is None for k in node.keywords))
                keywords = {k.arg for k in node.keywords if k.arg is not None}
                calls.setdefault(name, []).append((len(node.args), starred, keywords))
    return calls


def parameter_census():
    """(defaulted parameters no call passes, defaults no call relies on)."""
    calls = passed_parameters()
    unset, unrelied = [], []
    for key, position in sorted(defaulted_parameters().items()):
        callee, param = key.rsplit(".", 1)
        found = calls.get(callee, ())
        if not any(starred or param in kw or (position is not None and n > position)
                   for n, starred, kw in found):
            unset.append(key)
        if not any(param not in kw and (starred or position is None or n <= position)
                   for n, starred, kw in found):
            unrelied.append(key)
    return unset, unrelied


def main():
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        out = str(pathlib.Path(tmp) / "report")
        sys.setprofile(profile)
        try:
            for argv in commands():
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    rc = hhglab.cli.main(argv + ["--out", out])
                if rc == 2:
                    failures.append(" ".join(argv))
            geometry_jobs()
        finally:
            sys.setprofile(None)
    for argv in failures:
        print(f"usage error (exit 2): {argv}", file=sys.stderr)

    reached = {(code.co_filename, code.co_firstlineno) for code in entered}
    defined = defined_functions()
    missed = sorted(name for key, name in defined.items()
                    if key not in reached and name not in ALLOWED)
    for name in missed:
        print(name)
    stale = sorted(set(ALLOWED) - {name for key, name in defined.items()
                                   if key not in reached})
    for name in stale:
        print(f"allowed but reached or undefined: {name}")
    unset, unrelied = parameter_census()
    for name in unset:
        print(f"parameter no call passes: {name}")
    for name in unrelied:
        print(f"default no call relies on: {name}")
    return 1 if missed or stale or failures or unset or unrelied else 0


if __name__ == "__main__":
    sys.exit(main())
