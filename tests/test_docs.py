"""Documentation is part of the contract: routes, links and commands
are tested.

Three checks keep ``docs/`` honest:

* every route the servers actually dispatch (the ``ROUTES`` tables in
  ``service.server`` and ``service.replica.router``) is documented in
  ``docs/api.md`` — adding an endpoint without documenting it fails;
* every relative markdown link (and in-page anchor) in the docs,
  README and ROADMAP resolves;
* every ``$ python -m repro ...`` console command in README and
  ``docs/`` parses with the real CLI parser — a renamed or removed
  flag fails here instead of in a reader's terminal.

These run in the CI ``docs-check`` job alongside the API examples.
"""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from repro.service import server as server_module
from repro.service.replica import router as router_module

REPO = Path(__file__).resolve().parent.parent
DOCS = [
    REPO / "README.md",
    REPO / "ROADMAP.md",
    REPO / "docs" / "api.md",
    REPO / "docs" / "operations.md",
    REPO / "docs" / "architecture.md",
]

#: Markdown files whose ``$ python -m repro ...`` lines must parse.
CONSOLE_DOCS = [REPO / "README.md", *sorted((REPO / "docs").glob("*.md"))]
_PROMPT = "$ python -m repro "

_LINK = re.compile(r"(?<!\!)\[[^\]]+\]\(([^)\s]+)\)")
_HEADING = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)


def _escaped(route: str) -> str:
    return route.replace("<", "&lt;").replace(">", "&gt;")


def _console_commands(text: str) -> list:
    """The argument strings of every ``$ python -m repro ...`` line,
    with backslash-continued lines joined."""
    commands, current = [], None
    for line in text.splitlines():
        if current is not None:
            current += " " + line.strip()
        elif line.startswith(_PROMPT):
            current = line[len(_PROMPT):]
        else:
            continue
        if current.endswith("\\"):
            current = current[:-1]
            continue
        commands.append(current)
        current = None
    return commands


def _anchor_of(heading: str) -> str:
    """GitHub-style anchor slug for a markdown heading."""
    text = re.sub(r"[`*_]", "", heading).strip().lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


class TestRouteCoverage:
    def test_docs_exist(self):
        for path in DOCS:
            assert path.is_file(), f"missing documentation file: {path.name}"

    @pytest.mark.parametrize(
        "module", [server_module, router_module], ids=["server", "router"]
    )
    def test_every_route_is_documented(self, module):
        api = (REPO / "docs" / "api.md").read_text(encoding="utf-8")
        undocumented = [
            route
            for route in module.ROUTES
            if route not in api and _escaped(route) not in api
        ]
        assert not undocumented, (
            f"routes missing from docs/api.md: {undocumented} — "
            "document the endpoint (and keep ROUTES in sync)"
        )

    @pytest.mark.parametrize(
        "module", [server_module, router_module], ids=["server", "router"]
    )
    def test_route_table_matches_the_dispatcher(self, module):
        """The ROUTES table itself must not drift from the handler
        code: every literal path it names appears in the module
        source."""
        source = Path(module.__file__).read_text(encoding="utf-8")
        for route in module.ROUTES:
            path = route.split(" ", 1)[1]
            if path == "*":
                continue
            head = path.lstrip("/").split("/", 1)[0]
            assert head in source, f"ROUTES names {route} but {head!r} not dispatched"


class TestMarkdownLinks:
    @pytest.mark.parametrize("path", DOCS, ids=lambda p: p.name)
    def test_relative_links_resolve(self, path):
        text = path.read_text(encoding="utf-8")
        anchors = {_anchor_of(h) for h in _HEADING.findall(text)}
        broken = []
        for target in _LINK.findall(text):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            file_part, _, anchor = target.partition("#")
            if not file_part:
                if anchor not in anchors:
                    broken.append(target)
                continue
            resolved = (path.parent / file_part).resolve()
            if not resolved.exists():
                broken.append(target)
                continue
            if anchor and resolved.suffix == ".md":
                linked = resolved.read_text(encoding="utf-8")
                linked_anchors = {_anchor_of(h) for h in _HEADING.findall(linked)}
                if anchor not in linked_anchors:
                    broken.append(target)
        assert not broken, f"broken links in {path.name}: {broken}"

    def test_operations_metrics_table_covers_the_registry(self):
        """Every metric the processes actually register must appear in
        the operations guide's metrics table (ROADMAP's old table
        migrated here; this keeps it from rotting)."""
        import repro.cli  # noqa: F401  - imports the whole serving stack
        from repro.obs.metrics import REGISTRY

        operations = (REPO / "docs" / "operations.md").read_text(encoding="utf-8")
        missing = [
            name
            for name in REGISTRY.names()
            if f"`{name.removeprefix('repro_')}`" not in operations
        ]
        assert not missing, f"metrics missing from docs/operations.md: {missing}"


class TestConsoleCommands:
    def test_commands_are_found(self):
        for name in ("README.md", "operations.md"):
            path = next(path for path in CONSOLE_DOCS if path.name == name)
            commands = _console_commands(path.read_text(encoding="utf-8"))
            assert any(command.startswith("serve ") for command in commands), name

    @pytest.mark.parametrize("path", CONSOLE_DOCS, ids=lambda p: p.name)
    def test_console_commands_parse(self, path, capsys):
        from repro.cli import build_parser

        rejected = []
        for command in _console_commands(path.read_text(encoding="utf-8")):
            try:
                build_parser().parse_args(shlex.split(command, comments=True))
            except SystemExit:
                rejected.append((command, capsys.readouterr().err.strip().splitlines()[-1]))
        assert not rejected, f"commands in {path.name} the CLI rejects: {rejected}"
