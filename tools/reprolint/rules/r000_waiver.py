"""R000 — every suppression comment must carry a reason.

A waiver is a reviewed exception to a rule; a bare
``# reprolint: ignore[R002]`` records *that* a rule was silenced but
not *why*, which is exactly the information the next reader needs.
This rule makes the reason mandatory::

    total == used  # reprolint: ignore[R002] exact byte counts

Three findings:

- **bare waiver** — a well-formed ``ignore[...]`` with nothing after
  the closing bracket;
- **malformed waiver** — a comment that mentions ``reprolint`` and
  ``ignore`` but does not parse as ``# reprolint: ignore[CODES]``; it
  suppresses nothing, which is almost never what the author meant;
- **unknown code** — a waiver naming a code that is not a registered
  rule (a typo, or a retired rule such as R010); it suppresses nothing
  either.

Comments are found with :mod:`tokenize`, so prose or string literals
that merely mention the waiver syntax (this docstring, the engine's
regex) cannot trigger it.  R000 findings are themselves exempt from
suppression (``SUPPRESSIBLE = False``) — a bare waiver naming R000
must not waive the finding about its own bareness.
"""

from __future__ import annotations

import io
import re
import tokenize
from typing import Iterator

from tools.reprolint.engine import FileContext, Violation

CODE = "R000"
SUMMARY = "suppression comments must be well-formed and carry a reason"

#: The engine applies inline waivers to every rule but this one.
SUPPRESSIBLE = False

_WAIVER_RE = re.compile(r"#\s*reprolint:\s*ignore\[([A-Z0-9,\s]+)\](.*)$")


def check(ctx: FileContext) -> Iterator[Violation]:
    source = "\n".join(ctx.source_lines) + "\n"
    # Only a comment that mentions reprolint can be a finding, and most
    # files have none: skip their tokenization.
    if "reprolint" not in source:
        return
    # Imported here: the registry imports this module.
    from tools.reprolint.rules import RULES_BY_CODE

    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError):
        return
    for tok in tokens:
        if tok.type != tokenize.COMMENT:
            continue
        text = tok.string
        if "reprolint" not in text:
            continue
        line, col = tok.start
        match = _WAIVER_RE.search(text)
        if match is None:
            if "ignore" in text:
                yield Violation(
                    path=ctx.path,
                    line=line,
                    col=col,
                    code=CODE,
                    message=(
                        "malformed reprolint waiver (expected "
                        "'# reprolint: ignore[CODE] reason'); this comment "
                        "suppresses nothing"
                    ),
                )
            continue
        codes = [c.strip() for c in match.group(1).split(",") if c.strip()]
        unknown = [c for c in codes if c not in RULES_BY_CODE]
        if unknown:
            yield Violation(
                path=ctx.path,
                line=line,
                col=col,
                code=CODE,
                message=(
                    f"waiver names unknown rule code(s) {', '.join(unknown)} "
                    f"(see --list-rules); it suppresses nothing"
                ),
            )
        if not match.group(2).strip():
            yield Violation(
                path=ctx.path,
                line=line,
                col=col,
                code=CODE,
                message=(
                    f"bare waiver ignore[{','.join(codes)}] without a "
                    f"reason; state why the finding is safe after the "
                    f"closing bracket"
                ),
            )
