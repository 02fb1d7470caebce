"""Render the wire-v1 schema tables from ``repro.serve.schema``.

    python scripts/render_wire_schema.py                         # print
    python scripts/render_wire_schema.py --check docs/serving.md # exit 1 if stale
    python scripts/render_wire_schema.py --write docs/serving.md # refresh

The tables live in the docs between the two marker comments below; the
spec is the source, the docs are its rendering, and CI runs ``--check``
so they cannot drift.
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.serve import schema  # noqa: E402

BEGIN = "<!-- wire-schema:begin (scripts/render_wire_schema.py) -->"
END = "<!-- wire-schema:end -->"


def _binary_cell(message: schema.Message, row: schema.Field) -> str:
    parts = []
    if row.name in message.binary:
        slot = row.kind.slot
        if row.kind is schema.NESTED:
            slot = f"u32 count, {row.message.what} bodies"
        parts.append(f"#{message.binary.index(row.name) + 1} {slot}")
    if row.flag:
        parts.append(f"bit `0x{row.flag:02x}`")
    if not parts:
        carried = [r for r in message.rows if r.carry == row.name]
        return f"on the first of `{carried[0].name}`" if carried else "—"
    return ", ".join(parts)


def _json_cell(row: schema.Field) -> str:
    if row.kind is schema.NESTED:
        return f"list of {row.message.what} objects"
    return row.kind.json_type


def message_table(message: schema.Message) -> list[str]:
    traits = []
    if message.versioned:
        traits.append("JSON opens with `protocol_version`")
    if message.flagged:
        traits.append("binary opens with the flag byte")
    if message.cls is not None:
        traits.append(f"in memory: `{message.cls.__name__}`")
    lines = [
        f"**{message.what}** — {'; '.join(traits)}.",
        "",
        "| field | JSON | binary slot / flag bit | optional | domain |",
        "| --- | --- | --- | --- | --- |",
    ]
    for row in message.rows:
        name = f"`{row.name}`"
        if message.cls is not None and row.name in message.slot_names:
            name += " (envelope metadata)"
        lines.append(
            f"| {name} | {_json_cell(row)} | {_binary_cell(message, row)} "
            f"| {'yes' if row.optional else 'no'} "
            f"| {', '.join(f'`{d}`' for d in row.domain) or '—'} |"
        )
    return lines + [""]


def operations_table() -> list[str]:
    lines = [
        "**operations** — one row drives the HTTP handler, the binary "
        "listener and the SDK.",
        "",
        "| operation | HTTP | request frame | reply frame | request | response |",
        "| --- | --- | --- | --- | --- | --- |",
    ]
    for op in schema.OPERATIONS:
        lines.append(
            f"| `{op.name}` | `POST {op.path}` | `0x{op.request_kind:02x}` "
            f"| `0x{op.reply_kind:02x}` | {op.request.what} | {op.response.what} |"
        )
    return lines + [""]


def render() -> str:
    lines: list[str] = []
    for message in schema.MESSAGES:
        lines += message_table(message)
    lines += operations_table()
    return "\n".join(lines)


def _split(text: str, path: Path) -> tuple[str, str, str]:
    if text.count(BEGIN) != 1 or text.count(END) != 1:
        sys.exit(f"{path}: expected exactly one pair of wire-schema markers")
    head, rest = text.split(BEGIN)
    block, tail = rest.split(END)
    return head, block, tail


def main(argv: list[str]) -> int:
    if not argv:
        print(render())
        return 0
    if len(argv) != 2 or argv[0] not in ("--check", "--write"):
        sys.exit(__doc__)
    path = Path(argv[1])
    head, block, tail = _split(path.read_text(), path)
    fresh = f"\n{render()}"
    if argv[0] == "--write":
        path.write_text(head + BEGIN + fresh + END + tail)
    elif block != fresh:
        print(
            f"{path}: the wire-schema block is stale; run "
            f"python scripts/render_wire_schema.py --write {path}",
            file=sys.stderr,
        )
        return 1
    print(f"{path}: wire-schema block is current")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
