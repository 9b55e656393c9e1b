"""Prompt templates, one versioned text file per LLM call site.

Each template file holds a ``[system]`` and a ``[user]`` section, with only
blank lines before the first; ``load`` raises ValueError otherwise. Rendering
uses string.Template ($name placeholders) so literal braces in JSON schema
examples need no escaping. Missing placeholders raise KeyError at render
time, which is deliberate: call sites must supply every slot.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from functools import cache, cached_property
from pathlib import Path
from string import Template

_DIR = Path(__file__).parent
_SECTION_HEADERS = ("[system]", "[user]")


@dataclass(frozen=True)
class PromptTemplate:
    system: str
    user: str

    @cached_property
    def _templates(self) -> tuple[Template, Template]:
        """Built on the first render, then reused by every later one."""
        return Template(self.system), Template(self.user)

    def render(self, **values: str) -> tuple[str, str]:
        system, user = self._templates
        return system.substitute(values), user.substitute(values)


@cache
def load(name: str) -> PromptTemplate:
    text = (_DIR / f"{name}.txt").read_text(encoding="utf-8")
    sections: dict[str, list[str]] = {}
    current: list[str] | None = None
    for line in text.splitlines():
        if line.strip() in _SECTION_HEADERS:
            current = sections.setdefault(line.strip()[1:-1], [])
        elif current is not None:
            current.append(line)
        elif line.strip():
            raise ValueError(f"template {name!r} has text before its first section header")
    if "system" not in sections or "user" not in sections:
        raise ValueError(f"template {name!r} must contain [system] and [user] sections")
    return PromptTemplate(
        system="\n".join(sections["system"]).strip(),
        user="\n".join(sections["user"]).strip(),
    )


def render(name: str, **values: str) -> tuple[str, str]:
    return load(name).render(**values)


def category_options(categories: Iterable) -> str:
    """Numbered ``i. name: description (NOT: boundary)`` lines for any objects
    with those three attributes; the clause is left out for an empty boundary."""
    return "\n".join(
        f"{i}. {c.name}: {c.description}" + (f" (NOT: {c.boundary})" if c.boundary else "")
        for i, c in enumerate(categories, start=1)
    )


def service_options(services: Iterable) -> str:
    """Numbered ``i. name: description`` lines for any objects with those
    two attributes."""
    return "\n".join(f"{i}. {s.name}: {s.description}" for i, s in enumerate(services, start=1))


@cache
def snippet(name: str) -> str:
    """Loads a sectionless text fragment shared between templates."""
    return (_DIR / f"{name}.txt").read_text(encoding="utf-8").strip()
