"""The README's library tour runs as written, and every trailing comment
in it is the value of its line, so drift between the docs and the code
fails the suite."""

import ast
import io
import tokenize
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _tour_block() -> str:
    tour = README.read_text(encoding="utf-8").split("## Library tour", 1)[1]
    return tour.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_library_tour_values():
    block = _tour_block()
    comments = {
        tok.start[0]: tok.string[1:].strip()
        for tok in tokenize.generate_tokens(io.StringIO(block).readline)
        if tok.type == tokenize.COMMENT
    }
    namespace = {}
    checked = 0
    for stmt in ast.parse(block).body:
        comment = comments.get(stmt.end_lineno)
        if comment is None:
            exec(compile(ast.Module([stmt], []), "README", "exec"), namespace)
            continue
        assert isinstance(stmt, ast.Expr), f"comment on a statement: {ast.unparse(stmt)}"
        value = eval(compile(ast.Expression(stmt.value), "README", "eval"), namespace)
        assert value == eval(comment, namespace), ast.unparse(stmt)
        checked += 1
    assert checked == len(comments) > 0
