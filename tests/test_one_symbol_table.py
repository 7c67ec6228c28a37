"""One symbol table per alphabet: ``measure.symbol_index`` is the only code in
the package that maps an alphabet's symbols to their positions.  Every other
module reads a record's ``symbol_index``; none builds ``{c: i for i, c in
enumerate(alphabet)}`` or scans an alphabet with ``.index(``.  An expression
reads an alphabet when it names one: a name or attribute containing
``alphabet``.
"""

import ast
from pathlib import Path

PACKAGE = sorted((Path(__file__).resolve().parents[1] / "src" / "semishift").glob("*.py"))


def reads_alphabet(node: ast.AST) -> bool:
    return any(
        "alphabet" in (n.id if isinstance(n, ast.Name) else n.attr)
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def is_position_table(node: ast.AST) -> ast.AST | None:
    """The enumerated expression of ``{c: i for i, c in enumerate(x)}``, else None."""
    if not (isinstance(node, ast.DictComp) and len(node.generators) == 1):
        return None
    gen = node.generators[0]
    call = gen.iter
    if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
            and call.func.id == "enumerate" and call.args):
        return None
    names = [n.id if isinstance(n, ast.Name) else None
             for n in (*getattr(gen.target, "elts", ()), node.value, node.key)]
    return call.args[0] if len(names) == 4 and None not in names and names[:2] == names[2:] else None


def symbol_positions(tree: ast.AST):
    """(line, what) of each place that maps an alphabet's symbols to positions."""
    for node in ast.walk(tree):
        enumerated = is_position_table(node)
        if enumerated is not None and reads_alphabet(enumerated):
            yield node.lineno, "position dict"
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "index" and reads_alphabet(node.func.value)):
            yield node.lineno, ".index("


def test_the_detector_finds_each_way_of_mapping_an_alphabet():
    found = symbol_positions(ast.parse(
        "a = {c: i for i, c in enumerate(self.alphabet)}\n"
        "b = {s: k for k, s in enumerate(base_alphabet)}\n"
        "c = self.alphabet.index(x)\n"
        "d = alphabet.index(x)\n"
        "e = {v: k for k, v in enumerate(live)}\n"
        "f = {k: v for k, v in enumerate(alphabet)}\n"
        "g = live.index(x)\n"
    ))
    assert sorted(found) == [(1, "position dict"), (2, "position dict"), (3, ".index("),
                             (4, ".index(")]


def test_only_symbol_index_maps_symbols_to_positions():
    found = []
    for path in PACKAGE:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found += [(path.name, line, what) for line, what in symbol_positions(tree)]
    assert found == []
    # The shared definition builds its table from the symbols it is given.
    measure = ast.parse((PACKAGE[0].parent / "measure.py").read_text(encoding="utf-8"))
    (definition,) = [n for n in measure.body
                     if isinstance(n, ast.FunctionDef) and n.name == "symbol_index"]
    tables = [n for n in ast.walk(definition) if is_position_table(n) is not None]
    assert [ast.unparse(is_position_table(n)) for n in tables] == ["symbols"]
