"""Builder behavior: keyword compression, category design and repair, the
classify/refine loop, tiny-category merging, cross-domain copies, one-shot."""

from __future__ import annotations

import json
import re

import pytest

from conftest import RecordingChatBackend, assert_tuples_that_load_keeps
from taxonav import prompts
from taxonav.builder import (
    BuildConfig,
    BuildReport,
    CategoryDraft,
    KeywordTable,
    TaxonomyBuilder,
    _resolve_path,
    build,
    build_oneshot,
)
from taxonav.errors import ConfigError, DataError, DesignError
from taxonav.gateway import LlmGateway, MockChatBackend, ScriptRule
from taxonav.registry import Registry, Service
from taxonav.synthetic import LatentOracle, make_world
from taxonav.taxonomy import Taxonomy, validate


def svc(sid: str, description: str = "does things") -> Service:
    return Service(id=sid, name=sid, description=description)


def design_json(*names: str, axis: str = "functional-domain") -> str:
    return json.dumps(
        {
            "axis": axis,
            "categories": [
                {"name": n, "description": f"{n} stuff", "not_here": f"non-{n} stuff"}
                for n in names
            ],
        }
    )


def gw(*rules: ScriptRule, oracle=None) -> LlmGateway:
    return LlmGateway(chat_backend=RecordingChatBackend(rules=rules, oracle=oracle))


def calls(gateway: LlmGateway, label: str) -> list:
    return [c for c in gateway.chat_backend.transcript if c.label == label]


# -- keyword extraction ----------------------------------------------------


def kw_oracle(keywords_by_index):
    def oracle(label, request):
        if label != "build.keyword":
            return None
        lines = []
        import re

        for m in re.finditer(r"(?m)^(\d+)\. (\S+):", request.user_prompt):
            lines.append(f"{m.group(1)}: {keywords_by_index(m.group(2))}")
        return "\n".join(lines)

    return oracle


def test_keyword_batching_and_frequency():
    services = [svc(f"s{i:03d}") for i in range(120)]
    gateway = gw(oracle=kw_oracle(lambda name: "travel, flights"))
    builder = TaxonomyBuilder(gateway, BuildConfig(keyword_batch_size=50))
    table = builder.extract_keywords(services)
    assert len(calls(gateway, "build.keyword")) == 3  # 50 + 50 + 20
    # both keywords named by all 120 services; alphabetical on the freq tie
    assert table.entries == [("flights", 120), ("travel", 120)]
    assert table.render().splitlines()[0] == "- flights (120)"


def test_keyword_per_service_cap_and_case_dedup():
    gateway = gw(
        ScriptRule(pattern=".*", label="build.keyword", reply="1: a, b, c, d, e, f, g\n2: Maps, maps")
    )
    builder = TaxonomyBuilder(gateway, BuildConfig())
    table = builder.extract_keywords([svc("s1"), svc("s2")])
    assert dict(table.entries) == {"a": 1, "b": 1, "c": 1, "d": 1, "e": 1, "maps": 1}


def test_keyword_failed_batch_is_skipped_all_failed_is_fatal():
    services = [svc(f"bad-{i}") for i in range(50)] + [svc(f"ok-{i}") for i in range(10)]
    gateway = gw(
        ScriptRule(pattern=r"1\. bad-", label="build.keyword", reply="nothing useful"),
        ScriptRule(pattern=".*", label="build.keyword", reply="1: maps"),
    )
    builder = TaxonomyBuilder(gateway, BuildConfig(keyword_batch_size=50))
    assert builder.extract_keywords(services).entries == [("maps", 1)]

    gateway = gw(ScriptRule(pattern=".*", label="build.keyword", reply="no lines at all"))
    builder = TaxonomyBuilder(gateway, BuildConfig())
    with pytest.raises(DataError, match="every batch"):
        builder.extract_keywords(services[:10])


def test_keyword_lines_with_out_of_range_indices_count_nothing():
    services = [svc(f"s{i}") for i in range(4)]
    gateway = gw(
        ScriptRule(pattern=r"1\. s0:", label="build.keyword", reply="1: travel\n3: ghost"),
        ScriptRule(pattern=".*", label="build.keyword", reply="0: ghost\n9: ghost"),
    )
    report = BuildReport()
    builder = TaxonomyBuilder(gateway, BuildConfig(keyword_batch_size=2))
    table = builder.extract_keywords(services, report=report, node_id="root")
    assert table.entries == [("travel", 1)]
    assert report.warnings == ["root: keyword batch of 2 services parsed to nothing"]


def test_a_keyword_line_with_a_huge_index_counts_nothing():
    # int() of a 5,000-digit index would hit the int-string digit limit
    reply = "9" * 5000 + ": travel, booking\n" + "0" * 5000 + "2: hotels\n1: flights"
    gateway = gw(ScriptRule(pattern=".*", label="build.keyword", reply=reply))
    report = BuildReport()
    table = TaxonomyBuilder(gateway).extract_keywords([svc("s1"), svc("s2")], report=report)
    assert table.entries == [("flights", 1), ("hotels", 1)]
    assert report.warnings == []


def test_a_prompt_template_without_a_user_section_is_refused(tmp_path, monkeypatch):
    (tmp_path / "no_user.txt").write_text("[system]\nYou design categories.\n", encoding="utf-8")
    monkeypatch.setattr(prompts, "_DIR", tmp_path)
    message = r"^template 'no_user' must contain \[system\] and \[user\] sections$"
    with pytest.raises(ValueError, match=message):
        prompts.load("no_user")


# -- category design -------------------------------------------------------


def test_design_mixed_axes_gets_exactly_one_reask():
    mixed = json.dumps(
        {
            "categories": [
                {"name": "A", "description": "d", "not_here": "n", "axis": "operation-type"},
                {"name": "B", "description": "d", "not_here": "n", "axis": "functional-domain"},
            ]
        }
    )
    gateway = gw(ScriptRule(pattern=".*", label="build.design", reply=[mixed, design_json("A", "B")]))
    builder = TaxonomyBuilder(gateway)
    drafts = builder.design_categories([svc("s1")], "ctx", report=BuildReport())
    assert [d.name for d in drafts] == ["A", "B"]
    design_calls = calls(gateway, "build.design")
    assert len(design_calls) == 2
    retry_prompt = design_calls[1].request.user_prompt
    assert "Your previous reply was invalid" in retry_prompt
    assert "mix classification axes" in retry_prompt


def test_design_fails_after_reask():
    gateway = gw(ScriptRule(pattern=".*", label="build.design", reply=design_json("OnlyOne")))
    builder = TaxonomyBuilder(gateway)
    with pytest.raises(DesignError, match="fewer than 2"):
        builder.design_categories([svc("s1")], "ctx", report=BuildReport())
    assert len(calls(gateway, "build.design")) == 2


def test_design_coerces_axis_and_fills_boundary():
    reply = json.dumps(
        {
            "axis": "vibes",
            "categories": [
                {"name": "A", "description": "d"},
                {"name": "B", "description": "d", "not_here": "n"},
            ],
        }
    )
    gateway = gw(ScriptRule(pattern=".*", label="build.design", reply=reply))
    report = BuildReport()
    drafts = TaxonomyBuilder(gateway).design_categories([svc("s1")], "ctx", report=report)
    assert all(d.axis == "functional-domain" for d in drafts)
    assert drafts[0].boundary  # filled with a default clause
    assert any("coerced" in w for w in report.warnings)
    assert any("boundary" in w for w in report.warnings)


def test_design_truncates_to_max_categories():
    reply = design_json(*[f"C{i}" for i in range(25)])
    gateway = gw(ScriptRule(pattern=".*", label="build.design", reply=reply))
    report = BuildReport()
    builder = TaxonomyBuilder(gateway, BuildConfig(max_categories=20))
    drafts = builder.design_categories([svc("s1")], "ctx", report=report)
    assert len(drafts) == 20
    assert any("truncated" in w for w in report.warnings)


def test_design_skips_items_that_are_not_objects_or_have_no_name():
    reply = json.dumps(
        {
            "axis": "functional-domain",
            "categories": [
                "Loose",
                {"description": "nameless"},
                {"name": "  ", "not_here": "n"},
                {"name": "A", "description": "a", "not_here": "n"},
                {"name": "B", "description": "b", "not_here": "n"},
            ],
        }
    )
    gateway = gw(ScriptRule(pattern=".*", label="build.design", reply=reply))
    report = BuildReport()
    drafts = TaxonomyBuilder(gateway).design_categories([svc("s1")], "ctx", report=report)
    assert [(d.name, d.description) for d in drafts] == [("A", "a"), ("B", "b")]
    assert len(calls(gateway, "build.design")) == 1
    assert report.warnings == []


def test_design_empty_payload_raises():
    builder = TaxonomyBuilder(gw())
    with pytest.raises(DesignError, match="^cannot design categories for zero services$"):
        builder.design_categories([], "ctx", report=BuildReport())
    with pytest.raises(
        DesignError, match="^cannot design categories from an empty keyword table$"
    ):
        builder.design_categories(KeywordTable(entries=[]), "ctx", report=BuildReport())
    assert builder.gateway.chat_backend.transcript == []


# -- classification statuses -------------------------------------------------


def six_drafts() -> list[CategoryDraft]:
    return [
        CategoryDraft(name=f"C{i}", description="d", boundary="n", axis="functional-domain")
        for i in range(1, 7)
    ]


def test_classify_status_thresholds():
    """6 drafts, ratio 1/3: strictly more than 2 matches is generic and goes
    to the forced choice (or to the catch-all when that names nothing), 2
    matches are ok and go to both children, and no match or an unparseable
    reply is unmatched and goes to the catch-all."""
    gateway = gw(
        ScriptRule(pattern=r"Service:\ns1:.*single best", label="build.classify", reply="5, 4"),
        ScriptRule(pattern=r"Service:\ns1:", reply="1,2,3"),
        ScriptRule(pattern=r"Service:\ns2:", reply="1,2"),
        ScriptRule(pattern=r"Service:\ns3:", reply="0"),
        ScriptRule(pattern=r"Service:\ns4:", reply="no answer"),
        ScriptRule(pattern=r"Service:\ns5:.*single best", label="build.classify", reply="none"),
        ScriptRule(pattern=r"Service:\ns5:", reply="1,2,3,4"),
        ScriptRule(pattern="Design sibling categories", label="build.design",
                   reply=design_json(*(f"C{i}" for i in range(1, 7)))),
    )
    cfg = BuildConfig(generic_ratio=1 / 3, max_refine_iterations=0, tiny_merge_threshold=0)
    builder = TaxonomyBuilder(gateway, cfg)
    services = [svc("s1"), svc("s2"), svc("s3"), svc("s4"), svc("s5")]
    selections = builder.classify_services(services, six_drafts())
    assert [(sel.indices, sel.parse_failed) for sel in selections] == [
        ((1, 2, 3), False), ((1, 2), False), ((), False), ((), True),  # s4 even after the re-ask
        ((1, 2, 3, 4), False),
    ]

    tax = Taxonomy()
    node = tax.add_child("root", "Travel", "trips")
    gateway.chat_backend.transcript.clear()
    log, placements = builder.split_node(tax, node.node_id, services)
    assert [(draft.name, [s.id for s in members]) for draft, members in placements] == [
        ("C1", ["s2"]), ("C2", ["s2"]), ("C4", ["s1"]), ("Other", ["s3", "s4", "s5"]),
    ]
    # s4's re-ask; the forced choices of s1, and of s5 with its re-ask
    assert len(calls(gateway, "build.classify")) == 5 + 1 + 1 + 2
    assert log.warnings == [f"{node.node_id}: 2 classification replies unparseable after re-ask"]


def test_classify_prompt_text_is_pinned():
    drafts = [
        CategoryDraft(name="Flights", description="Air travel.", boundary="Hotels.", axis="functional-domain"),
        CategoryDraft(name="Hotels", description="Places to stay.", boundary="", axis="functional-domain"),
    ]
    gateway = gw(ScriptRule(pattern=".*", label="build.classify", reply="1"))
    TaxonomyBuilder(gateway).classify_services([svc("s1", "books seats")], drafts)
    (call,) = gateway.chat_backend.transcript
    assert call.request.user_prompt == (
        "Service:\n"
        "s1: books seats\n"
        "\n"
        "Categories:\n"
        "1. Flights: Air travel. (NOT: Hotels.)\n"
        "2. Hotels: Places to stay.\n"
        "\n"
        "Which categories does this service belong to? Reply with comma-separated numbers "
        "(for example: 1,3). Reply 0 if none apply."
    )


def test_classify_single_best_takes_min_index():
    """The forced choice for a generic service is the classifier on the
    single-best prompt; its pick is the smallest index the reply names."""
    gateway = gw(ScriptRule(pattern=".*", label="build.classify", reply="3, 2"))
    forced = TaxonomyBuilder(gateway)._classifier(six_drafts(), "classify_single_best")
    assert forced(svc("s1")).indices[0] == 2  # indices come sorted
    (call,) = gateway.chat_backend.transcript
    assert "Choose the single best category" in call.request.user_prompt
    gateway = gw(ScriptRule(pattern=".*", label="build.classify", reply="none"))
    forced = TaxonomyBuilder(gateway)._classifier(six_drafts(), "classify_single_best")
    assert forced(svc("s1")).indices == ()


# -- the refine loop ----------------------------------------------------------


def split_rules(straggler_replies: list[str]) -> list[ScriptRule]:
    """Root split over s01..s10: designer proposes Alpha/Beta, s01 follows
    the given reply list, s02-s06 go to 1 and s07-s10 go to 2."""
    return [
        ScriptRule(pattern="Design sibling categories", label="build.design",
                   reply=design_json("Alpha", "Beta")),
        ScriptRule(pattern="Audit the proposed", label="build.design", reply='{"ok": true}'),
        ScriptRule(pattern=".*", label="build.refine", reply=design_json("Alpha", "Beta")),
        ScriptRule(pattern=r"Service:\ns01:", label="build.classify", reply=straggler_replies),
        ScriptRule(pattern=r"Service:\ns0[2-6]:", label="build.classify", reply="1"),
        ScriptRule(pattern=r"Service:\n(s0[7-9]|s10):", label="build.classify", reply="2"),
        ScriptRule(pattern="ALSO appear", label="build.cross_domain", reply='{"candidates": []}'),
    ]


def ten_services() -> Registry:
    return Registry([svc(f"s{i:02d}") for i in range(1, 11)])


def test_refine_loop_reclassifies_after_each_round():
    gateway = gw(*split_rules(["0", "0", "1"]))
    taxonomy, report = build(
        ten_services(), BuildConfig(leaf_threshold=6, generic_ratio=0.5), gateway
    )
    assert len(calls(gateway, "build.refine")) == 2
    assert len(calls(gateway, "build.classify")) == 30  # 3 rounds x 10 services
    assert report.refine_iterations["root"] == 2
    names = sorted(taxonomy.node(c).name for c in taxonomy.root.children)
    assert names == ["Alpha", "Beta"]
    assert len(taxonomy.node("root/alpha").service_ids) == 6  # s01 landed in Alpha
    assert report.catchall_placements == 0


def test_refine_cap_then_catchall_child():
    rules = split_rules(["0"])
    # three permanent strays defeat the tiny forced placement
    rules[3] = ScriptRule(pattern=r"Service:\n(s01|s02|s03):", label="build.classify", reply="0")
    rules[4] = ScriptRule(pattern=r"Service:\ns0[4-6]:", label="build.classify", reply="1")
    gateway = gw(*rules)
    taxonomy, report = build(
        ten_services(), BuildConfig(leaf_threshold=5, generic_ratio=0.5), gateway
    )
    assert len(calls(gateway, "build.refine")) == 3  # capped
    assert report.refine_iterations["root"] == 3
    assert len(calls(gateway, "build.classify")) == 40  # 4 rounds x 10
    names = [taxonomy.node(c).name for c in taxonomy.root.children]
    assert names == ["Alpha", "Beta", "Other"]
    assert sorted(taxonomy.node("root/other").service_ids) == ["s01", "s02", "s03"]
    assert report.catchall_placements == 3


def test_single_stray_is_forced_into_largest_survivor():
    rules = split_rules(["0"])
    gateway = gw(*rules)
    taxonomy, report = build(
        ten_services(), BuildConfig(leaf_threshold=6, generic_ratio=0.5), gateway
    )
    # one permanently unmatched service cannot become a tiny catch-all
    assert all(taxonomy.node(c).name != "Other" for c in taxonomy.root.children)
    assert report.forced_placements == 1
    assert "s01" in taxonomy.node("root/alpha").service_ids  # Alpha is largest (5 vs 4)
    assert report.catchall_placements == 0


def test_generic_service_gets_forced_choice_call():
    rules = [
        ScriptRule(pattern="Design sibling categories", label="build.design",
                   reply=design_json("Alpha", "Beta", "Gamma", "Delta")),
        ScriptRule(pattern="Audit the proposed", label="build.design", reply='{"ok": true}'),
        # refinement cannot fix a generic service here; reply is unusable
        ScriptRule(pattern=".*", label="build.refine", reply="cannot help"),
        ScriptRule(pattern=r"exactly one number", label="build.classify", reply="2"),
        ScriptRule(pattern=r"Service:\ns01:", label="build.classify", reply="1,2"),
        ScriptRule(pattern=r"Service:\ns0[2-4]:", label="build.classify", reply="1"),
        ScriptRule(pattern=r"Service:\n(s0[5-7]):", label="build.classify", reply="2"),
        ScriptRule(pattern=r"Service:\n(s0[8-9]|s10):", label="build.classify", reply="3"),
        ScriptRule(pattern="ALSO appear", label="build.cross_domain", reply='{"candidates": []}'),
    ]
    gateway = gw(*rules)
    # ratio 1/4 over 4 drafts: 2 matches > 1 means generic
    taxonomy, report = build(
        ten_services(), BuildConfig(leaf_threshold=5, generic_ratio=1 / 4), gateway
    )
    assert any("refinement reply unusable" in w for w in report.warnings)
    # 10 classifications + 1 forced choice for the generic s01
    assert len(calls(gateway, "build.classify")) == 11
    assert "s01" in taxonomy.node("root/beta").service_ids
    assert "s01" not in taxonomy.node("root/alpha").service_ids


def test_ok_service_lands_in_every_matched_category():
    rules = [
        ScriptRule(pattern="Design sibling categories", label="build.design",
                   reply=design_json("Alpha", "Beta", "Gamma")),
        ScriptRule(pattern="Audit the proposed", label="build.design", reply='{"ok": true}'),
        ScriptRule(pattern=r"Service:\ns01:", label="build.classify", reply="1,2"),
        ScriptRule(pattern=r"Service:\ns0[2-3]:", label="build.classify", reply="1"),
        ScriptRule(pattern=r"Service:\ns0[4-6]:", label="build.classify", reply="2"),
        ScriptRule(pattern=r"Service:\n(s0[7-9]|s10):", label="build.classify", reply="3"),
        ScriptRule(pattern="ALSO appear", label="build.cross_domain", reply='{"candidates": []}'),
    ]
    gateway = gw(*rules)
    # generic bar with ratio 2/3 over 3 drafts is 2.0, so two matches stay ok
    taxonomy, report = build(
        ten_services(), BuildConfig(leaf_threshold=5, generic_ratio=2 / 3), gateway
    )
    alpha = taxonomy.node("root/alpha").service_ids
    beta = taxonomy.node("root/beta").service_ids
    assert "s01" in alpha and "s01" in beta
    assert taxonomy.assignment["s01"] == ("root/alpha", "root/beta")
    assert report.refine_iterations["root"] == 0


# -- tiny merge ---------------------------------------------------------------


def test_tiny_children_merge_and_displaced_reclassify():
    rules = [
        ScriptRule(pattern="Design sibling categories", label="build.design",
                   reply=design_json("Alpha", "Beta", "Gamma")),
        ScriptRule(pattern="Audit the proposed", label="build.design", reply='{"ok": true}'),
        ScriptRule(pattern=r"Service:\ns0[1-5]:", label="build.classify", reply="1"),
        ScriptRule(pattern=r"Service:\n(s0[6-9]):", label="build.classify", reply="2"),
        ScriptRule(pattern=r"Service:\ns10:", label="build.classify", reply=["3", "2"]),
        ScriptRule(pattern="ALSO appear", label="build.cross_domain", reply='{"candidates": []}'),
    ]
    gateway = gw(*rules)
    taxonomy, report = build(ten_services(), BuildConfig(leaf_threshold=5), gateway)
    # Gamma held only s10 (at the tiny bar), so it merged away
    names = sorted(taxonomy.node(c).name for c in taxonomy.root.children)
    assert names == ["Alpha", "Beta"]
    assert report.merged_tiny_categories == 1
    assert "s10" in taxonomy.node("root/beta").service_ids
    assert validate(taxonomy, ten_services()) == []


def test_collapse_when_fewer_than_two_survivors():
    rules = [
        ScriptRule(pattern="Design sibling categories", label="build.design",
                   reply=design_json("Alpha", "Beta")),
        ScriptRule(pattern="Audit the proposed", label="build.design", reply='{"ok": true}'),
        ScriptRule(pattern=r"Service:", label="build.classify", reply="1"),
    ]
    gateway = gw(*rules)
    taxonomy, report = build(
        ten_services(), BuildConfig(leaf_threshold=5, generic_ratio=0.5), gateway
    )
    assert taxonomy.root.is_leaf()
    assert len(taxonomy.root.service_ids) == 10
    assert report.oversized_leaves == ["root"]
    assert any("fewer than 2 children survived" in w for w in report.warnings)


def test_unusable_keyword_and_classification_replies_are_warnings():
    rules = [
        ScriptRule(pattern=r"1\. s01:", label="build.keyword", reply="junk"),
        ScriptRule(pattern=".*", label="build.keyword", reply="1: maps\n2: maps"),
        ScriptRule(pattern="Design sibling categories", label="build.design",
                   reply=design_json("Alpha", "Beta")),
        ScriptRule(pattern="Audit the proposed", label="build.design", reply='{"ok": true}'),
        ScriptRule(pattern=".*", label="build.refine", reply=design_json("Alpha", "Beta")),
        ScriptRule(pattern=r"Service:\ns0[1-5]:", label="build.classify", reply="nothing"),
        ScriptRule(pattern=r"Service:", label="build.classify", reply="1"),
    ]
    gateway = gw(*rules)
    cfg = BuildConfig(keyword_threshold=5, keyword_batch_size=5, leaf_threshold=5, generic_ratio=0.5)
    _, report = build(ten_services(), cfg, gateway)
    assert len(calls(gateway, "build.keyword")) == 2
    # in each of 4 rounds, five services answer at once and five are re-asked
    assert len(calls(gateway, "build.classify")) == 4 * (5 + 2 * 5)
    assert report.warnings == [
        "root: keyword batch of 5 services parsed to nothing",
        "root: fewer than 2 children survived the tiny merge; kept as a leaf",
        "root: 20 classification replies unparseable after re-ask",
    ]


def test_a_split_node_counts_its_unparseable_classification_replies():
    gateway = gw(*split_rules(["nothing"]))
    _, report = build(ten_services(), BuildConfig(leaf_threshold=6, generic_ratio=0.5), gateway)
    assert report.warnings == [
        "root: 1 stray services forced into 'Alpha'",
        "root: 4 classification replies unparseable after re-ask",
    ]


# -- root validation ----------------------------------------------------------


def test_validate_root_ok_keeps_drafts_single_call(world200, oracle_gateway):
    build(world200.registry, BuildConfig(), oracle_gateway)
    audits = [
        c for c in calls(oracle_gateway, "build.design")
        if "Audit the proposed" in c.request.user_prompt
    ]
    assert len(audits) == 1


def test_validate_root_repair_replaces_top_level():
    rules = [
        ScriptRule(pattern="Design sibling categories", label="build.design",
                   reply=design_json("Alpha", "Beta")),
        ScriptRule(pattern="Audit the proposed", label="build.design",
                   reply='{"ok": false, ' + design_json("Gamma", "Delta")[1:]),
        ScriptRule(pattern=r"Service:\ns0[1-5]:", label="build.classify", reply="1"),
        ScriptRule(pattern=r"Service:", label="build.classify", reply="2"),
        ScriptRule(pattern="ALSO appear", label="build.cross_domain", reply='{"candidates": []}'),
    ]
    gateway = gw(*rules)
    taxonomy, _ = build(
        ten_services(), BuildConfig(leaf_threshold=5, generic_ratio=0.5), gateway
    )
    assert sorted(taxonomy.node(c).name for c in taxonomy.root.children) == ["Delta", "Gamma"]


def test_validate_root_rejects_bad_repair():
    rules = [
        ScriptRule(pattern="Design sibling categories", label="build.design",
                   reply=design_json("Alpha", "Beta")),
        ScriptRule(pattern="Audit the proposed", label="build.design",
                   reply='{"ok": false, ' + design_json("OnlyOne")[1:]),
        ScriptRule(pattern=r"Service:\ns0[1-5]:", label="build.classify", reply="1"),
        ScriptRule(pattern=r"Service:", label="build.classify", reply="2"),
        ScriptRule(pattern="ALSO appear", label="build.cross_domain", reply='{"candidates": []}'),
    ]
    gateway = gw(*rules)
    taxonomy, report = build(
        ten_services(), BuildConfig(leaf_threshold=5, generic_ratio=0.5), gateway
    )
    assert sorted(taxonomy.node(c).name for c in taxonomy.root.children) == ["Alpha", "Beta"]
    assert any("root repair rejected" in w for w in report.warnings)


@pytest.mark.parametrize(
    "audit_reply, cause",
    [
        ("no verdict", "no JSON object in reply 'no verdict'"),
        ('{"ok": false}', "the reply JSON lacks a 'categories' array"),
    ],
)
def test_validate_root_unusable_audit_keeps_drafts_after_one_call(audit_reply, cause):
    rules = [
        ScriptRule(pattern="Design sibling categories", label="build.design",
                   reply=design_json("Alpha", "Beta")),
        ScriptRule(pattern="Audit the proposed", label="build.design", reply=audit_reply),
        ScriptRule(pattern=r"Service:\ns0[1-5]:", label="build.classify", reply="1"),
        ScriptRule(pattern=r"Service:", label="build.classify", reply="2"),
        ScriptRule(pattern="ALSO appear", label="build.cross_domain", reply='{"candidates": []}'),
    ]
    gateway = gw(*rules)
    taxonomy, report = build(
        ten_services(), BuildConfig(leaf_threshold=5, generic_ratio=0.5), gateway
    )
    design_prompts = [c.request.user_prompt for c in calls(gateway, "build.design")]
    assert ["Audit the proposed" in p for p in design_prompts] == [False, True]
    assert sorted(taxonomy.node(c).name for c in taxonomy.root.children) == ["Alpha", "Beta"]
    assert report.warnings == [f"root repair rejected ({cause}); keeping original drafts"]


# -- whole builds -------------------------------------------------------------


def test_small_registry_stays_single_leaf():
    gateway = gw()  # would raise on any chat call
    registry = Registry([svc(f"s{i}") for i in range(30)])
    taxonomy, report = build(registry, BuildConfig(), gateway)
    assert taxonomy.root.is_leaf()
    assert gateway.chat_backend.transcript == []
    assert report.total_calls() == 0
    assert report.assigned_services == 30
    assert report.cross_domain["proposals"] == 0
    assert validate(taxonomy, registry) == []


def test_latent_build_recovers_the_latent_tree(world200, oracle_gateway):
    taxonomy, report = build(world200.registry, BuildConfig(), oracle_gateway)
    assert len(taxonomy.nodes) == 21  # root + 4 domains + 16 leaves
    assert len(taxonomy.leaves()) == 16
    assert validate(taxonomy, world200.registry) == []
    assert report.catchall_placements == 0
    assert report.assigned_services == 200
    # every leaf holds exactly one latent cell
    for leaf_id in taxonomy.leaves():
        members = taxonomy.node(leaf_id).service_ids
        cells = {(world200.domain_of[s], world200.subdomain_of[s]) for s in members}
        assert len(cells) == 1
        domain, sub = next(iter(cells))
        assert sorted(members) == sorted(world200.leaf_services(domain, sub))
    assert report.calls_by_phase == {"classify": 400, "cross_domain": 16, "design": 6}


def test_keyword_routing_above_threshold():
    world = make_world(3, 5, 600, extra_description=" RAWSENTINEL")
    gateway = LlmGateway(chat_backend=RecordingChatBackend(oracle=LatentOracle(world)))
    taxonomy, report = build(world.registry, BuildConfig(), gateway)

    assert report.calls_by_phase["keyword"] == 12  # 600 services / batch 50
    root_design = [
        c for c in calls(gateway, "build.design")
        if "keyword frequency table" in c.request.user_prompt
    ]
    assert len(root_design) == 1
    assert "RAWSENTINEL" not in root_design[0].request.user_prompt
    # domain nodes (200 services) fall back to raw descriptions
    child_designs = [
        c for c in calls(gateway, "build.design")
        if "partition the services" in c.request.user_prompt
    ]
    assert len(child_designs) == 3
    assert all("RAWSENTINEL" in c.request.user_prompt for c in child_designs)

    assert len(taxonomy.leaves()) == 15
    assert report.calls_by_phase["classify"] == 600 + 3 * 200
    assert validate(taxonomy, world.registry) == []


def test_root_design_failure_is_fatal():
    gateway = gw(ScriptRule(pattern=".*", label="build.design", reply="not json"))
    with pytest.raises(DesignError, match="root"):
        build(ten_services(), BuildConfig(leaf_threshold=5), gateway)


def test_non_root_design_failure_keeps_oversized_leaf(world200):
    # children designs fail; the root split still stands
    def oracle(label, request):
        if label == "build.design" and "partition the services" in request.user_prompt:
            if "The parent category is" in request.user_prompt:
                return "junk"
        return LatentOracle(world200)(label, request)

    gateway = LlmGateway(chat_backend=MockChatBackend(oracle=oracle))
    taxonomy, report = build(world200.registry, BuildConfig(), gateway)
    assert len(taxonomy.root.children) == 4
    assert all(taxonomy.node(c).is_leaf() for c in taxonomy.root.children)
    assert len(report.oversized_leaves) == 4
    assert validate(taxonomy, world200.registry) == []


def test_build_config_validation():
    with pytest.raises(ConfigError):
        BuildConfig(leaf_threshold=0)
    with pytest.raises(ConfigError):
        BuildConfig(max_depth=0)
    with pytest.raises(ConfigError):
        BuildConfig(generic_ratio=0)
    with pytest.raises(ConfigError):
        BuildConfig(keyword_batch_size=0)
    with pytest.raises(TypeError):  # the gateway's workers alone bound the build
        BuildConfig(workers=4)


# -- cross-domain pass ----------------------------------------------------------


def two_domain_taxonomy() -> tuple[Taxonomy, Registry]:
    tax = Taxonomy()
    travel = tax.add_child("root", "Travel", "trips")
    finance = tax.add_child("root", "Finance", "money")
    tleaf = tax.add_child(travel.node_id, "Flights", "flying")
    fleaf = tax.add_child(finance.node_id, "Payments", "paying")
    tleaf.service_ids = ["f1", "f2", "f3"]
    fleaf.service_ids = ["p1", "p2", "p3"]
    tax.rebuild_assignment()
    registry = Registry([svc(s) for s in ("f1", "f2", "f3", "p1", "p2", "p3")])
    return tax, registry


def cross_rules(
    travel_reply: str, nav_reply: str = "1", finance_reply: str = '{"candidates": []}'
) -> list[ScriptRule]:
    return [
        ScriptRule(pattern='domain "Travel"', label="build.cross_domain", reply=travel_reply),
        ScriptRule(pattern='domain "Finance"', label="build.cross_domain", reply=finance_reply),
        ScriptRule(pattern="Query:", label="build.cross_domain", reply=nav_reply),
    ]


def test_cross_domain_copies_service_and_extends_assignment():
    tax, registry = two_domain_taxonomy()
    gateway = gw(*cross_rules('{"candidates": [{"index": 1, "domain": "Finance"}]}'))
    report = BuildReport()
    TaxonomyBuilder(gateway).cross_domain_assign(tax, registry, report)
    assert tax.node("root/finance/payments").service_ids == ["p1", "p2", "p3", "f1"]
    assert tax.assignment["f1"] == ("root/travel/flights", "root/finance/payments")
    assert report.cross_domain["accepted"] == 1
    assert report.cross_domain["extra_assignments_distribution"] == {"1": 1}
    assert validate(tax, registry) == []


def test_cross_domain_extensions_share_one_tuple_per_placement(tmp_path):
    tax, registry = two_domain_taxonomy()
    tax.node("root/finance/payments").service_ids.append("f3")  # placed in both leaves before the pass
    tax.rebuild_assignment()
    reply = '{"candidates": [{"index": 1, "domain": "Finance"}, {"index": 2, "domain": "Finance"}]}'
    TaxonomyBuilder(gw(*cross_rules(reply))).cross_domain_assign(tax, registry, BuildReport())
    assert tax.assignment["f1"] == ("root/travel/flights", "root/finance/payments")
    assert tax.assignment["f1"] is tax.assignment["f2"] is tax.assignment["f3"]
    assert_tuples_that_load_keeps(tax, tmp_path)


def test_cross_domain_duplicate_proposal_is_idempotent():
    tax, registry = two_domain_taxonomy()
    reply = '{"candidates": [{"index": 1, "domain": "Finance"}, {"index": 1, "domain": "Finance"}]}'
    gateway = gw(*cross_rules(reply))
    report = BuildReport()
    TaxonomyBuilder(gateway).cross_domain_assign(tax, registry, report)
    assert tax.node("root/finance/payments").service_ids.count("f1") == 1
    assert report.cross_domain == {
        "proposals": 2,
        "accepted": 1,
        "duplicates": 1,
        "skipped": 0,
        "routing_failures": 0,
        "extra_assignments_distribution": {"1": 1},
    }


def test_cross_domain_skips_bad_candidates_and_routing_failures():
    tax, registry = two_domain_taxonomy()
    reply = json.dumps(
        {
            "candidates": [
                {"index": 99, "domain": "Finance"},   # out of range
                {"index": 1, "domain": "Travel"},     # own domain
                {"index": 1, "domain": "Nowhere"},    # unknown domain
                {"index": 2, "domain": "Finance"},    # navigation will refuse
            ]
        }
    )
    gateway = gw(*cross_rules(reply, nav_reply="0"))
    report = BuildReport()
    TaxonomyBuilder(gateway).cross_domain_assign(tax, registry, report)
    assert report.cross_domain["skipped"] == 3
    assert report.cross_domain["routing_failures"] == 1
    assert report.cross_domain["accepted"] == 0


def test_cross_domain_reply_junk_after_its_reask_is_one_warning():
    tax, registry = two_domain_taxonomy()
    gateway = gw(*cross_rules("no candidates here"))
    report = BuildReport()
    TaxonomyBuilder(gateway).cross_domain_assign(tax, registry, report)
    prompts_sent = [c.request.user_prompt for c in calls(gateway, "build.cross_domain")]
    # Travel's ask and its one re-ask, then Finance's ask; nothing is routed
    assert [('domain "Travel"' in p, p.endswith("nothing else.")) for p in prompts_sent] == [
        (True, False), (True, True), (False, False)
    ]
    assert report.warnings == ["root/travel/flights: cross-domain reply had no candidate list"]
    assert report.cross_domain["proposals"] == 0


def test_cross_domain_counts_a_reply_without_a_list_and_skips_bad_candidates():
    tax, registry = two_domain_taxonomy()
    tax.add_child("root/travel", "Trains", "rail")  # an empty leaf is not asked
    finance = '{"candidates": ["p1", 7, null, {"index": 9, "domain": "Travel"}]}'
    gateway = gw(*cross_rules('{"candidates": "f1"}', finance_reply=finance))
    report = BuildReport()
    TaxonomyBuilder(gateway).cross_domain_assign(tax, registry, report)
    assert len(calls(gateway, "build.cross_domain")) == 2  # one ask per non-empty leaf
    assert report.warnings == ["root/travel/flights: cross-domain reply had no candidate list"]
    assert report.cross_domain == {
        "proposals": 4,
        "accepted": 0,
        "duplicates": 0,
        "skipped": 4,
        "routing_failures": 0,
        "extra_assignments_distribution": {},
    }


def test_cross_domain_index_refers_to_the_services_the_prompt_listed():
    # Finance's prompt listed 3 services; the copy of f1 that Travel's
    # candidate adds to it is not a 4th, and JSON true is not index 1.
    tax, registry = two_domain_taxonomy()
    finance = '{"candidates": [{"index": 4, "domain": "Travel"}, {"index": true, "domain": "Travel"}]}'
    gateway = gw(*cross_rules(
        '{"candidates": [{"index": 1, "domain": "Finance"}]}', finance_reply=finance
    ))
    report = BuildReport()
    TaxonomyBuilder(gateway).cross_domain_assign(tax, registry, report)
    assert report.cross_domain == {
        "proposals": 3,
        "accepted": 1,
        "duplicates": 0,
        "skipped": 2,
        "routing_failures": 0,
        "extra_assignments_distribution": {"1": 1},
    }
    assert tax.node("root/travel/flights").service_ids == ["f1", "f2", "f3"]


@pytest.mark.parametrize("domains", [0, 1])
def test_cross_domain_with_fewer_than_two_domains_asks_nothing(domains):
    tax = Taxonomy()
    parent = tax.root_id
    if domains:
        parent = tax.add_child(parent, "Only").node_id
        tax.add_child(parent, "Leaf")
    for leaf_id in tax.leaves():
        tax.node(leaf_id).service_ids = ["s1"]
    tax.rebuild_assignment()
    gateway = gw()
    report = BuildReport()
    TaxonomyBuilder(gateway).cross_domain_assign(tax, Registry([svc("s1")]), report)
    assert gateway.chat_backend.transcript == []
    assert report.cross_domain == {
        "proposals": 0,
        "accepted": 0,
        "duplicates": 0,
        "skipped": 0,
        "routing_failures": 0,
        "extra_assignments_distribution": {},
    }
    assert report.warnings == []


# -- one-shot builder ---------------------------------------------------------


ONESHOT_TREE = json.dumps(
    {
        "categories": [
            {
                "name": "Work",
                "description": "work tools",
                "children": [
                    {
                        "name": "Docs",
                        "description": "documents",
                        "children": [
                            {"name": "Editors", "description": "edit"},
                            {"name": "Viewers", "description": "view"},
                            {"name": "Spare", "description": "unused"},
                        ],
                    }
                ],
            }
        ]
    }
)


def oneshot_registry() -> Registry:
    return Registry([svc("e1"), svc("e2"), svc("v1"), svc("bad1")])


def oneshot_rules(bad1_replies) -> list[ScriptRule]:
    return [
        ScriptRule(pattern=".*", label="oneshot.design", reply=ONESHOT_TREE),
        ScriptRule(pattern=".*", label="oneshot.refine", reply=ONESHOT_TREE),
        ScriptRule(pattern=r"Service:\ne[12]:", label="oneshot.classify",
                   reply="Work > Docs > Editors"),
        ScriptRule(pattern=r"Service:\nv1:", label="oneshot.classify",
                   reply="Work > Docs > Viewers"),
        ScriptRule(pattern=r"Service:\nbad1:", label="oneshot.classify", reply=bad1_replies),
    ]


def test_oneshot_holds_tuples_that_load_keeps(tmp_path):
    gateway = gw(*oneshot_rules("Nonsense > Path"))
    taxonomy, _ = build_oneshot(oneshot_registry(), "base", BuildConfig(), gateway)
    assert_tuples_that_load_keeps(taxonomy, tmp_path)


def test_oneshot_base_call_law_and_failures():
    gateway = gw(*oneshot_rules("Nonsense > Path"))
    taxonomy, report = build_oneshot(oneshot_registry(), "base", BuildConfig(), gateway)
    assert len(gateway.chat_backend.transcript) == 5  # n + 1
    assert report.calls_by_phase == {"classify": 4, "design": 1}
    assert [f["service_id"] for f in report.classification_failures] == ["bad1"]
    assert "bad1" not in taxonomy.assignment
    assert report.assigned_services == 3
    # the unused Spare leaf is pruned away
    assert all(taxonomy.node(n).name != "Spare" for n in taxonomy.nodes)
    assert report.pruned_empty_categories == 1
    assert taxonomy.node("root/work/docs/editors").service_ids == ["e1", "e2"]


PRUNE_TREE = json.dumps(
    {
        "categories": [
            {
                "name": "Work",
                "description": "work tools",
                "children": [
                    {
                        "name": "Docs",
                        "description": "documents",
                        "children": [
                            {"name": "Editors", "description": "edit"},
                            {"name": "Viewers", "description": "view"},
                        ],
                    },
                    {
                        "name": "Archive",
                        "description": "old files",
                        "children": [{"name": "Vault", "description": "cold storage"}],
                    },
                ],
            },
            {"name": "Media", "children": [{"name": "Players", "description": "play"}]},
            {
                "name": "Legacy",
                "description": "retired",
                "children": [{"name": "Old", "children": [{"name": "Oldest", "description": "gone"}]}],
            },
        ]
    }
)


def test_oneshot_prunes_leaves_left_empty_and_their_childless_parents():
    """Vault empties Archive, and Oldest empties Old and then Legacy."""
    gateway = gw(
        ScriptRule(pattern=".*", label="oneshot.design", reply=PRUNE_TREE),
        ScriptRule(pattern=r"Service:\ne[12]:", label="oneshot.classify",
                   reply="Work > Docs > Editors"),
        ScriptRule(pattern=r"Service:\nv1:", label="oneshot.classify", reply="Work > Docs > Viewers"),
        ScriptRule(pattern=r"Service:\np1:", label="oneshot.classify", reply="Media > Players"),
    )
    registry = Registry([svc("e1"), svc("e2"), svc("v1"), svc("p1")])
    taxonomy, report = build_oneshot(registry, "base", BuildConfig(), gateway)
    # count, nodes and child lists as the fixed-point pruning loop left them
    assert report.pruned_empty_categories == 5
    assert {nid: node.children for nid, node in taxonomy.nodes.items()} == {
        "root": ["root/work", "root/media"],
        "root/work": ["root/work/docs"],
        "root/work/docs": ["root/work/docs/editors", "root/work/docs/viewers"],
        "root/work/docs/editors": [],
        "root/work/docs/viewers": [],
        "root/media": ["root/media/players"],
        "root/media/players": [],
    }
    assert taxonomy.assignment == {
        "e1": ("root/work/docs/editors",),
        "e2": ("root/work/docs/editors",),
        "v1": ("root/work/docs/viewers",),
        "p1": ("root/media/players",),
    }
    # the outline every classify prompt shows, as the recursive renderer wrote it
    outline = (
        "- Work: work tools\n"
        "  - Docs: documents\n"
        "    - Editors: edit\n"
        "    - Viewers: view\n"
        "  - Archive: old files\n"
        "    - Vault: cold storage\n"
        "- Media\n"
        "  - Players: play\n"
        "- Legacy: retired\n"
        "  - Old\n"
        "    - Oldest: gone"
    )
    prompts = [c.request.user_prompt for c in calls(gateway, "oneshot.classify")]
    assert len(prompts) == 4
    assert all(outline + "\n" in prompt for prompt in prompts)


def three_d_tree() -> Taxonomy:
    tax = Taxonomy()
    media = tax.add_child("root", "Media")
    printing = tax.add_child(media.node_id, "3D Printing")
    tax.add_child(printing.node_id, "Models")
    tax.add_child(printing.node_id, "Slicers")
    return tax


@pytest.mark.parametrize(
    "reply",
    [
        "Media > 3D Printing > Models",
        "1. Media > 3D Printing > Models",
        "2) Media > 3D Printing > Models",
        "- Media > 3D Printing > Models",
        "* 'Media' > \"3D Printing\" > Models",
        "The best leaf is:\n  1. Media > 3D Printing > Models ",
    ],
)
def test_oneshot_path_keeps_digit_led_category_names(reply):
    assert _resolve_path(three_d_tree(), reply) == "root/media/3d-printing/models"


def test_oneshot_path_strips_one_marker_from_the_line_only():
    tax = Taxonomy()
    tax.add_child(tax.add_child("root", "A").node_id, "B")
    assert _resolve_path(tax, "1. A > B") == "root/a/b"
    assert _resolve_path(tax, "- A > B") == "root/a/b"
    assert _resolve_path(tax, "A > 1. B") is None


@pytest.mark.parametrize(
    "reply, recorded",
    [("Work / Docs / Viewers", "Work / Docs / Viewers"), (" > > ", "> >")],
    ids=["no separator", "no parts"],
)
def test_oneshot_reply_without_a_path_is_a_classification_failure(reply, recorded):
    # not even a tree whose root is its only leaf takes such a reply
    assert _resolve_path(Taxonomy(), reply) is None
    gateway = gw(*oneshot_rules(reply))
    taxonomy, report = build_oneshot(oneshot_registry(), "base", BuildConfig(), gateway)
    assert report.classification_failures == [{"service_id": "bad1", "reply": recorded}]
    assert "bad1" not in taxonomy.assignment
    assert report.assigned_services == 3


def test_oneshot_plus_refine_fixes_failures():
    gateway = gw(*oneshot_rules(["Nonsense > Path", "Work > Docs > Viewers"]))
    taxonomy, report = build_oneshot(oneshot_registry(), "+refine", BuildConfig(), gateway)
    assert report.classification_failures == []
    assert report.calls_by_phase == {"classify": 8, "design": 1, "refine": 1}
    assert sorted(taxonomy.node("root/work/docs/viewers").service_ids) == ["bad1", "v1"]


def test_oneshot_plus_freq_designs_from_keywords():
    rules = oneshot_rules("Work > Docs > Viewers")
    rules.append(
        ScriptRule(pattern=".*", label="oneshot.keyword", reply="1: docs\n2: docs\n3: docs\n4: docs")
    )
    gateway = gw(*rules)
    _, report = build_oneshot(oneshot_registry(), "freq", BuildConfig(), gateway)
    assert report.calls_by_phase["keyword"] == 1
    design_call = calls(gateway, "oneshot.design")[0]
    assert "Keyword frequencies" in design_call.request.user_prompt
    assert "- docs (4)" in design_call.request.user_prompt


def test_oneshot_plus_freq_warns_of_a_keyword_batch_that_parsed_to_nothing():
    rules = oneshot_rules("Work > Docs > Viewers")
    rules.append(ScriptRule(pattern=r"1\. e1:", label="oneshot.keyword", reply="junk"))
    rules.append(ScriptRule(pattern=".*", label="oneshot.keyword", reply="1: docs\n2: docs"))
    gateway = gw(*rules)
    _, report = build_oneshot(oneshot_registry(), "freq", BuildConfig(keyword_batch_size=2), gateway)
    assert report.calls_by_phase["keyword"] == 2
    assert report.warnings[0] == "keyword batch of 2 services parsed to nothing"
    assert not any("keyword" in warning for warning in report.warnings[1:])


def test_oneshot_plus_axis_prepends_rules():
    gateway = gw(*oneshot_rules("Work > Docs > Viewers"))
    build_oneshot(oneshot_registry(), "+axis", BuildConfig(), gateway)
    axis_prompt = calls(gateway, "oneshot.design")[0].request.user_prompt
    assert axis_prompt.startswith("Category design rules:")

    gateway = gw(*oneshot_rules("Work > Docs > Viewers"))
    build_oneshot(oneshot_registry(), "base", BuildConfig(), gateway)
    base_prompt = calls(gateway, "oneshot.design")[0].request.user_prompt
    assert "Category design rules:" not in base_prompt


def test_oneshot_rejects_unknown_variant_and_empty_registry():
    with pytest.raises(DataError, match="unknown one-shot variant"):
        build_oneshot(oneshot_registry(), "+turbo", BuildConfig(), gw())
    with pytest.raises(DataError, match="empty registry"):
        build_oneshot(Registry([]), "base", BuildConfig(), gw())


def test_oneshot_design_junk_raises():
    gateway = gw(ScriptRule(pattern=".*", label="oneshot.design", reply="not a tree"))
    with pytest.raises(DesignError, match="no non-empty 'categories' array"):
        build_oneshot(oneshot_registry(), "base", BuildConfig(), gateway)
    assert [c.label for c in gateway.chat_backend.transcript] == ["oneshot.design"] * 2  # one re-ask


def test_oneshot_design_with_empty_categories_raises():
    gateway = gw(ScriptRule(pattern=".*", label="oneshot.design", reply='{"categories": []}'))
    with pytest.raises(DesignError, match="no non-empty 'categories' array"):
        build_oneshot(oneshot_registry(), "base", BuildConfig(), gateway)
    assert [c.label for c in gateway.chat_backend.transcript] == ["oneshot.design"]


def test_oneshot_refine_prompt_lists_at_most_20_failed_services():
    registry = Registry([svc(f"f{i:02d}") for i in range(1, 23)])
    gateway = gw(
        ScriptRule(pattern=".*", label="oneshot.design", reply=ONESHOT_TREE),
        ScriptRule(pattern=".*", label="oneshot.refine", reply=ONESHOT_TREE),
        ScriptRule(pattern=".*", label="oneshot.classify", reply="Nonsense > Path"),
    )
    _, report = build_oneshot(registry, "refine", BuildConfig(max_refine_iterations=1), gateway)
    assert len(report.classification_failures) == 22
    [refine] = calls(gateway, "oneshot.refine")
    prompt = refine.request.user_prompt
    assert "(22 in total, sample below)" in prompt
    listed = re.findall(r"^\d+\. (f\d+):", prompt, flags=re.MULTILINE)
    assert listed == [f"f{i:02d}" for i in range(1, 21)]


@pytest.mark.parametrize("reply, refine_calls", [("not a tree", 2), ('{"categories": []}', 1)])
def test_oneshot_refine_unusable_reply_warns_once_and_stops(reply, refine_calls):
    rules = oneshot_rules("Nonsense > Path")
    rules[1] = ScriptRule(pattern=".*", label="oneshot.refine", reply=reply)
    gateway = gw(*rules)
    taxonomy, report = build_oneshot(oneshot_registry(), "refine", BuildConfig(), gateway)
    assert report.calls_by_phase == {"classify": 4, "design": 1, "refine": refine_calls}
    assert [w for w in report.warnings if "refinement" in w] == [
        "one-shot refinement rejected (one-shot design reply has no non-empty"
        " 'categories' array); stopping early"
    ]
    assert [f["service_id"] for f in report.classification_failures] == ["bad1"]
    assert taxonomy.node("root/work/docs/editors").service_ids == ["e1", "e2"]


def test_oneshot_design_skips_items_that_are_not_objects_or_have_no_name():
    tree = {
        "categories": [
            "Loose",
            {"description": "nameless"},
            {
                "name": "Work",
                "description": "work tools",
                "children": [
                    {
                        "name": "Docs",
                        "children": [
                            7,
                            {"name": "Editors", "description": "edit"},
                            {"name": " ", "description": "blank"},
                            {"name": "Viewers"},
                        ],
                    }
                ],
            },
        ]
    }
    rules = oneshot_rules("Work > Docs > Viewers")
    rules[0] = ScriptRule(pattern=".*", label="oneshot.design", reply=json.dumps(tree))
    gateway = gw(*rules)
    taxonomy, report = build_oneshot(oneshot_registry(), "base", BuildConfig(), gateway)
    assert report.calls_by_phase == {"classify": 4, "design": 1}
    assert taxonomy.walk() == [
        "root", "root/work", "root/work/docs", "root/work/docs/editors", "root/work/docs/viewers"
    ]
    assert report.warnings == [
        "root/work/docs: 2 children outside the requested (3, 5) range",
        "root/work: 1 children outside the requested (3, 5) range",
        "1 top-level categories outside the requested (6, 10) range",
    ]
