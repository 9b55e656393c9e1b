"""Every parser of an LLM reply, on any text: it returns, or it raises only
its documented error. Replies are drawn from plain text and from the shapes
that reach the parsers' branches: numbered keyword lines whose index is
sometimes a run of more digits than the int-string limit allows, JSON in
code fences and prose, design objects, nested braces, and category paths."""

from __future__ import annotations

import json
import re

from hypothesis import given
from hypothesis import strategies as st

from taxonav.baselines import parse_tool_assistant
from taxonav.builder import (
    AXIS_TAGS,
    BuildConfig,
    BuildReport,
    CategoryDraft,
    TaxonomyBuilder,
    _resolve_path,
)
from taxonav.errors import DataError, DesignError, ReplyParseError
from taxonav.gateway import LlmGateway, MockChatBackend, extract_json_object, parse_index_list
from taxonav.registry import Service
from taxonav.taxonomy import Taxonomy

# A keyword line's index: small, past the int-string digit limit (4,300),
# or a valid index behind that many leading zeros.
INDICES = st.one_of(
    st.integers(0, 3).map(str),
    st.integers(4301, 5000).map(lambda k: "9" * k),
    st.integers(4301, 5000).map(lambda k: "0" * k + "1"),
)
KEYWORD_LINES = st.lists(
    st.one_of(
        st.builds("{}{} {}".format, INDICES, st.sampled_from(":.)-"),
                  st.lists(st.text(max_size=8), max_size=7).map(", ".join)),
        st.text(max_size=20),
    ),
    max_size=6,
).map("\n".join)

KEYS = st.sampled_from(["categories", "name", "description", "not_here", "axis", "ok"]) | st.text(max_size=4)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=6),
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(KEYS, kids, max_size=4),
    max_leaves=12,
)
AXES = st.sampled_from([*AXIS_TAGS, "Operation Type", "vibes", ""]) | JSON_VALUES
DESIGNS = st.fixed_dictionaries(
    {"categories": st.lists(
        st.fixed_dictionaries(
            {"name": st.sampled_from(["A", "B", "C", "D", " "]) | JSON_VALUES},
            optional={"description": JSON_VALUES, "not_here": st.just("n") | JSON_VALUES, "axis": AXES},
        ),
        max_size=24,
    ) | JSON_VALUES},
    optional={"axis": AXES, "ok": JSON_VALUES},
)
JSON_REPLIES = st.builds(
    str.format,
    st.sampled_from(["{}", "```json\n{}\n```", "Sure! {} hope that helps"]),
    (DESIGNS | JSON_VALUES).map(json.dumps),
)
NESTED_BRACES = st.one_of(
    st.text(alphabet=st.sampled_from('{}[]":,0123456789ab \n`')),
    st.integers(1, 3000).map(lambda d: '{"categories": ' + "[" * d + "]" * d + "}"),
    st.integers(4301, 5000).map(lambda k: '{"categories": ' + "1" * k + "}"),
)
PATHS = st.builds(
    "{}{}".format,
    st.sampled_from(["", "- ", "* ", "1. ", "2) ", "Path: "]),
    st.lists(st.sampled_from(["Travel", "flights ", '"Hotels"', "3D Printing", ""]) | st.text(max_size=5),
             max_size=4).map(" > ".join),
)
REPLIES = st.one_of(st.text(), KEYWORD_LINES, JSON_REPLIES, NESTED_BRACES, PATHS)


def tree() -> Taxonomy:
    tax = Taxonomy()
    travel = tax.add_child("root", "Travel")
    tax.add_child(travel.node_id, "Flights")
    tax.add_child(travel.node_id, "3D Printing")
    tax.add_child("root", "Hotels")
    return tax


def builder_answering(text: str) -> TaxonomyBuilder:
    """A builder whose every chat call, re-asks included, is answered with
    ``text``, inline on the calling thread."""
    backend = MockChatBackend(oracle=lambda _label, _request: text)
    return TaxonomyBuilder(LlmGateway(chat_backend=backend, workers=1), BuildConfig(keyword_batch_size=2))


def drafts(*names: str) -> list[CategoryDraft]:
    return [CategoryDraft(name, "d", "n", "functional-domain") for name in names]


def check_drafts(result: list[CategoryDraft]) -> None:
    assert 2 <= len(result) <= BuildConfig().max_categories
    assert len({d.axis for d in result}) == 1 and result[0].axis in AXIS_TAGS
    assert all(d.name.strip() and d.boundary for d in result)


@given(text=REPLIES, n=st.integers(1, 50))
def test_the_gateway_baseline_and_path_parsers_return_or_raise_reply_parse_error(text, n):
    try:
        chosen, dropped = parse_index_list(text, n)
        assert chosen <= set(range(1, n + 1)) and dropped >= 0
    except ReplyParseError:  # only a reply with no digits at all
        assert not re.search(r"\d", text)

    try:
        assert isinstance(extract_json_object(text), dict)
    except ReplyParseError:
        pass

    tool = parse_tool_assistant(text)
    assert tool is None or (tool and tool == tool.strip())

    tax = tree()
    leaf_id = _resolve_path(tax, text)
    assert leaf_id is None or leaf_id in tax.leaves()


@given(text=st.text() | KEYWORD_LINES)
def test_the_keyword_parser_returns_or_raises_data_error_when_every_batch_fails(text):
    services = [Service(f"s{i}", f"s{i}", "does things") for i in range(3)]  # batches of 2 and 1
    report = BuildReport()
    try:
        table = builder_answering(text).extract_keywords(services, report=report)
    except DataError as exc:
        assert str(exc) == "keyword extraction failed for every batch"
        assert len(report.warnings) == 2
        return
    assert all(count >= 1 and keyword == keyword.strip().lower() for keyword, count in table.entries)


@given(text=st.one_of(st.text(), JSON_REPLIES, NESTED_BRACES))
def test_the_design_parsers_return_drafts_or_raise_design_error(text):
    builder = builder_answering(text)
    services = [Service("s1", "s1", "does things")]
    # design_categories and refine_drafts both parse through _request_drafts
    for request in (
        lambda: builder.design_categories(services, "ctx", report=BuildReport()),
        lambda: builder.refine_drafts(drafts("A", "B"), services, [], "ctx", report=BuildReport()),
    ):
        try:
            check_drafts(request())
        except DesignError as exc:
            assert str(exc).startswith("category design failed after re-ask: ")
    # the root audit keeps its drafts on any unusable reply
    check_drafts(builder.validate_root(drafts("A", "B"), None, services, BuildReport()))
