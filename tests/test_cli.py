"""Command line surface: config layering, artifact layout, exit codes,
and the build/search/eval/baseline/stats/compare flows against the mock
backend driven by scripted replies."""

from __future__ import annotations

import dataclasses
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import run_fresh
from taxonav import cli
from taxonav import taxonomy as taxonomy_io
from taxonav.builder import BuildConfig
from taxonav.errors import DiscoveryError
from taxonav.eval_harness import PerQueryRecord, Summary, load_records, load_summary
from taxonav.gateway import HttpBackend
from taxonav.registry import FieldMap, Registry, Service, field_types, load_queries, load_registry
from taxonav.search import SearchConfig

# -- fixtures ----------------------------------------------------------------

FAMILIES = ("alpha", "beta", "gamma")
DESIGN_REPLY = json.dumps(
    {
        "axis": "functional-domain",
        "categories": [
            {
                "name": family.capitalize(),
                "description": f"{family} tools",
                "not_here": "everything else",
            }
            for family in FAMILIES
        ],
    }
)


def write_registry(path: Path) -> None:
    lines = []
    for family in FAMILIES:
        for i in (1, 2, 3):
            lines.append(
                json.dumps(
                    {
                        "id": f"{family}-{i}",
                        "name": f"{family}-{i}",
                        "description": f"{family} tool number {i}",
                    }
                )
            )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_script(path: Path, rules: list[dict]) -> Path:
    path.write_text(json.dumps({"rules": rules}), encoding="utf-8")
    return path


def build_rules() -> list[dict]:
    # classify replies are 1-based draft indices; family k -> category k
    rules = [
        {"pattern": "Audit the proposed", "reply": json.dumps({"ok": True})},
        {"pattern": "partition the services", "reply": DESIGN_REPLY},
        {"pattern": "ALSO appear", "reply": json.dumps({"candidates": []})},
    ]
    for index, family in enumerate(FAMILIES, start=1):
        rules.append({"pattern": rf"Service:\n{family}-", "reply": str(index)})
    return rules


def search_rules() -> list[dict]:
    return [
        {"label": "search.navigate", "pattern": "alpha things", "reply": "1"},
        {"label": "search.navigate", "pattern": "beta things", "reply": "2"},
        {"label": "search.select", "pattern": "alpha things", "reply": "1, 2"},
        {"label": "search.select", "pattern": "beta things", "reply": "1"},
    ]


@pytest.fixture(scope="module")
def cli_world(tmp_path_factory) -> dict:
    """A registry, a built taxonomy, and a query file shared by CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    registry = root / "registry.jsonl"
    write_registry(registry)

    queries = root / "queries.jsonl"
    queries.write_text(
        json.dumps({"id": "q1", "text": "alpha things", "ground_truth": ["alpha-1", "alpha-2"]})
        + "\n"
        + json.dumps({"id": "q2", "text": "beta things", "ground_truth": ["beta-1"]})
        + "\n",
        encoding="utf-8",
    )

    build_script = write_script(root / "build_script.json", build_rules())
    out = root / "tax"
    code = cli.main(
        [
            "build",
            "--registry", str(registry),
            "--script", str(build_script),
            "--out", str(out),
            "--theta-leaf", "3",
        ]
    )
    assert code == 0

    search_script = write_script(root / "search_script.json", search_rules())
    return {
        "root": root,
        "registry": registry,
        "queries": queries,
        "out": out,
        "build_script": build_script,
        "search_script": search_script,
    }


# -- build -------------------------------------------------------------------


def test_build_writes_all_artifacts(cli_world):
    out = cli_world["out"]
    for name in ("taxonomy.json", "class.json", "build_report.json", "config.json"):
        assert (out / name).exists(), name

    config = json.loads((out / "config.json").read_text(encoding="utf-8"))
    assert config["command"] == "build"
    assert config["backend"] == "mock"
    assert config["build"]["leaf_threshold"] == 3
    assert "workers" in config and "workers" not in config["build"]
    assert "api_key" not in config

    report = json.loads((out / "build_report.json").read_text(encoding="utf-8"))
    # 9 classify, design + root audit, one cross-domain proposal per leaf
    assert report["calls_by_phase"] == {"classify": 9, "cross_domain": 3, "design": 2}

    taxonomy = json.loads((out / "taxonomy.json").read_text(encoding="utf-8"))
    names = {node["name"] for node in taxonomy["nodes"]}
    assert {"Alpha", "Beta", "Gamma"} <= names


def test_build_stdout_summary(cli_world, capsys):
    out = cli_world["root"] / "tax_again"
    code = cli.main(
        [
            "build",
            "--registry", str(cli_world["registry"]),
            "--script", str(cli_world["build_script"]),
            "--out", str(out),
            "--theta-leaf", "3",
        ]
    )
    assert code == 0
    line = capsys.readouterr().out.strip()
    assert line == (
        f"built taxonomy over 9 services: 4 categories, 3 leaves, 14 chat calls -> {out}"
    )


def test_build_oneshot_cli(cli_world, tmp_path, capsys):
    registry = tmp_path / "tools.jsonl"
    registry.write_text(
        "\n".join(
            json.dumps({"id": sid, "name": sid, "description": desc})
            for sid, desc in (
                ("e1", "edits documents"),
                ("e2", "edits spreadsheets"),
                ("v1", "views documents"),
            )
        )
        + "\n",
        encoding="utf-8",
    )
    tree = json.dumps(
        {
            "categories": [
                {
                    "name": "Work",
                    "description": "work tools",
                    "children": [
                        {"name": "Editors", "description": "edit"},
                        {"name": "Viewers", "description": "view"},
                    ],
                }
            ]
        }
    )
    script = write_script(
        tmp_path / "oneshot.json",
        [
            {"label": "oneshot.design", "pattern": ".", "reply": tree},
            {"label": "oneshot.classify", "pattern": r"Service:\ne[12]:", "reply": "Work > Editors"},
            {"label": "oneshot.classify", "pattern": r"Service:\nv1:", "reply": "Work > Viewers"},
        ],
    )
    out = tmp_path / "oneshot_tax"
    code = cli.main(
        [
            "build-oneshot",
            "--registry", str(registry),
            "--script", str(script),
            "--out", str(out),
        ]
    )
    assert code == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("one-shot (oneshot-base) taxonomy over 3 services:")
    assert "0 classification failures, 4 chat calls" in line

    config = json.loads((out / "config.json").read_text(encoding="utf-8"))
    assert config["command"] == "build-oneshot"
    assert config["variant"] == "base"
    report = json.loads((out / "build_report.json").read_text(encoding="utf-8"))
    assert report["method"] == "oneshot-base"


# -- search ------------------------------------------------------------------


def test_search_prints_json_without_trace(cli_world, capsys):
    code = cli.main(
        [
            "search",
            "--registry", str(cli_world["registry"]),
            "--taxonomy", str(cli_world["out"]),
            "--script", str(cli_world["search_script"]),
            "--query", "alpha things",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["service_ids"] == ["alpha-1", "alpha-2"]
    assert payload["calls"] == 2
    assert "trace" not in payload


def test_search_trace_flag_includes_steps(cli_world, capsys):
    code = cli.main(
        [
            "search",
            "--registry", str(cli_world["registry"]),
            "--taxonomy", str(cli_world["out"]),
            "--script", str(cli_world["search_script"]),
            "--query", "beta things",
            "--trace",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["service_ids"] == ["beta-1"]
    kinds = [step["kind"] for step in payload["trace"]]
    assert kinds == ["navigate", "select"]


# -- eval and baselines --------------------------------------------------------


def test_eval_writes_run_dir(cli_world, capsys):
    run_dir = cli_world["root"] / "run_tax"
    code = cli.main(
        [
            "eval",
            "--registry", str(cli_world["registry"]),
            "--queries", str(cli_world["queries"]),
            "--taxonomy", str(cli_world["out"]),
            "--script", str(cli_world["search_script"]),
            "--run-dir", str(run_dir),
            "--dataset", "toy",
        ]
    )
    assert code == 0
    assert "taxonomy/get_all: hit_rate=1.000 recall=1.000 over 2 queries" in capsys.readouterr().out
    for name in ("summary.json", "per_query.jsonl", "config.json"):
        assert (run_dir / name).exists(), name
    summary = json.loads((run_dir / "summary.json").read_text(encoding="utf-8"))
    assert summary["method"] == "taxonomy"
    assert summary["dataset"] == "toy"
    assert summary["hit_rate"] == 1.0
    assert summary["query_count"] == 2
    records = [
        json.loads(line)
        for line in (run_dir / "per_query.jsonl").read_text(encoding="utf-8").splitlines()
    ]
    assert [r["query_id"] for r in records] == ["q1", "q2"]


def test_baseline_embed_with_explicit_k(cli_world, capsys):
    # query text equals a description, so the hash-vector mock ranks it first
    queries = cli_world["root"] / "embed_queries.jsonl"
    queries.write_text(
        json.dumps({"id": "q1", "text": "alpha tool number 1", "ground_truth": ["alpha-1"]})
        + "\n",
        encoding="utf-8",
    )
    run_dir = cli_world["root"] / "run_embed"
    code = cli.main(
        [
            "baseline",
            "--method", "embed",
            "--registry", str(cli_world["registry"]),
            "--queries", str(queries),
            "--run-dir", str(run_dir),
            "--k", "1",
        ]
    )
    assert code == 0
    assert "embed k=1: hit_rate=1.000" in capsys.readouterr().out
    summary = json.loads((run_dir / "summary.json").read_text(encoding="utf-8"))
    assert summary["setting"] == "k=1"
    assert summary["precision"] == 1.0
    config = json.loads((run_dir / "config.json").read_text(encoding="utf-8"))
    assert config["method"] == "embed"
    assert config["k"] == 1


def test_baseline_shape_picks_default_k(cli_world):
    queries = cli_world["root"] / "embed_queries.jsonl"
    run_dir = cli_world["root"] / "run_shape"
    code = cli.main(
        [
            "baseline",
            "--method", "embed",
            "--registry", str(cli_world["registry"]),
            "--queries", str(queries),
            "--run-dir", str(run_dir),
            "--shape", "toolret",
        ]
    )
    assert code == 0
    config = json.loads((run_dir / "config.json").read_text(encoding="utf-8"))
    assert config["k"] == 5


def test_baseline_embed_without_k_or_shape_fails(cli_world, capsys):
    code = cli.main(
        [
            "baseline",
            "--method", "embed",
            "--registry", str(cli_world["registry"]),
            "--queries", str(cli_world["queries"]),
            "--run-dir", str(cli_world["root"] / "run_nok"),
        ]
    )
    assert code == 3
    assert "needs --k or --shape" in capsys.readouterr().err


def test_baseline_pure_llm(cli_world, capsys):
    script = write_script(
        cli_world["root"] / "pure_script.json",
        [{"label": "baseline.pure_llm", "pattern": ".", "reply": "alpha-1\nalpha-2"}],
    )
    run_dir = cli_world["root"] / "run_pure"
    code = cli.main(
        [
            "baseline",
            "--method", "pure-llm",
            "--registry", str(cli_world["registry"]),
            "--queries", str(cli_world["queries"]),
            "--script", str(script),
            "--run-dir", str(run_dir),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "pure-llm: hit_rate=" in out
    summary = json.loads((run_dir / "summary.json").read_text(encoding="utf-8"))
    assert summary["query_count"] == 2
    assert summary["calls_per_query"] == 1.0


def test_compare_renders_table_and_csv(cli_world, capsys, tmp_path):
    csv_path = tmp_path / "table.csv"
    run_dirs = [str(cli_world["root"] / "run_tax"), str(cli_world["root"] / "run_embed")]
    code = cli.main(["compare", *run_dirs, "--csv", str(csv_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "prec(2nd)" in out
    assert "precision is a secondary metric" in out
    assert f"wrote {csv_path}" in out
    header = csv_path.read_text(encoding="utf-8").splitlines()[0]
    assert header.split(",")[:2] == ["method", "dataset"]


# -- stats ---------------------------------------------------------------------


def test_stats_reports_registry_queries_taxonomy(cli_world, capsys):
    code = cli.main(
        [
            "stats",
            "--registry", str(cli_world["registry"]),
            "--queries", str(cli_world["queries"]),
            "--taxonomy", str(cli_world["out"]),
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["registry"]["count"] == 9
    assert payload["queries"] == {"count": 2, "mean_ground_truth_size": 1.5}
    assert payload["taxonomy"]["total_categories"] == 4
    assert payload["taxonomy"]["leaf_categories"] == 3


def test_stats_taxonomy_with_a_bad_field_type_exits_3(cli_world, tmp_path, capsys):
    tax_dir = tmp_path / "tax"
    tax_dir.mkdir()
    (tax_dir / "class.json").write_bytes((cli_world["out"] / "class.json").read_bytes())
    doc = json.loads((cli_world["out"] / "taxonomy.json").read_text())
    doc["nodes"][1]["depth"] = "x"
    (tax_dir / "taxonomy.json").write_text(json.dumps(doc))
    assert cli.main(["stats", "--taxonomy", str(tax_dir)]) == 3
    assert "nodes[1] field 'depth' must be an integer" in capsys.readouterr().err


def test_stats_requires_some_input(capsys):
    assert cli.main(["stats"]) == 3
    assert "nothing to report" in capsys.readouterr().err


def test_stats_queries_need_registry(cli_world, capsys):
    code = cli.main(
        [
            "stats",
            "--taxonomy", str(cli_world["out"]),
            "--queries", str(cli_world["queries"]),
        ]
    )
    assert code == 3
    assert "--queries needs --registry" in capsys.readouterr().err


def test_stats_field_map_inline_json(tmp_path, capsys):
    data = tmp_path / "alt.jsonl"
    data.write_text(
        json.dumps({"tool_id": "a", "title": "a", "blurb": "does a"})
        + "\n"
        + json.dumps({"tool_id": "b", "title": "b", "blurb": "does b"})
        + "\n",
        encoding="utf-8",
    )
    field_map = json.dumps({"id": "tool_id", "name": "title", "description": "blurb"})
    code = cli.main(["stats", "--registry", str(data), "--field-map", field_map])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["registry"]["count"] == 2


def test_an_inline_field_map_value_that_is_not_a_string_exits_3(cli_world, capsys):
    code = cli.main(["stats", "--registry", str(cli_world["registry"]), "--field-map", '{"id": []}'])
    assert code == 3
    assert capsys.readouterr().err == "error category=data: field map field 'id' must be a string\n"


def test_field_map_rejects_unknown_keys(tmp_path, capsys):
    data = tmp_path / "alt.jsonl"
    data.write_text(json.dumps({"id": "a", "name": "a", "description": "d"}) + "\n")
    code = cli.main(["stats", "--registry", str(data), "--field-map", '{"nope": "x"}'])
    assert code == 3
    assert "unknown field map keys: nope" in capsys.readouterr().err


@pytest.fixture(scope="module")
def renamed_world(cli_world) -> dict:
    """cli_world's registry and queries with every key renamed, and the
    field map file that names the new keys."""
    root = cli_world["root"] / "renamed"
    root.mkdir()
    renames = {
        "registry": {"id": "tool_id", "name": "title", "description": "blurb"},
        "queries": {"id": "qid", "text": "ask", "ground_truth": "gold"},
    }
    for name, renamed in renames.items():
        records = map(json.loads, cli_world[name].read_text(encoding="utf-8").splitlines())
        lines = [json.dumps({renamed[key]: value for key, value in r.items()}) for r in records]
        (root / f"{name}.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    field_map = {**renames["registry"], "query_id": "qid", "query_text": "ask", "ground_truth": "gold"}
    (root / "field_map.json").write_text(json.dumps(field_map), encoding="utf-8")
    return {"registry": root / "registry.jsonl", "queries": root / "queries.jsonl",
            "field_map": root / "field_map.json"}


# command -> its arguments besides the dataset flags; {run_dir} is per run
FIELD_MAP_RUNS = {
    "eval": ["eval", "--taxonomy", "{out}", "--script", "{search_script}", "--run-dir", "{run_dir}"],
    "baseline": ["baseline", "--method", "embed", "--k", "2", "--run-dir", "{run_dir}"],
    "stats": ["stats"],
}


@pytest.mark.parametrize("command", sorted(FIELD_MAP_RUNS))
def test_renamed_keys_read_through_one_field_map_file_give_the_same_run(
    cli_world, renamed_world, tmp_path, monkeypatch, capsys, command
):
    reads = []
    json_object = cli._json_object

    def counting_json_object(what, path=None, **kwargs):
        reads.append(what)
        return json_object(what, path, **kwargs)

    monkeypatch.setattr(cli, "_json_object", counting_json_object)

    def run(name: str, registry: Path, queries: Path, *field_map: str) -> tuple[str, dict]:
        run_dir = tmp_path / name
        argv = [arg.format(**cli_world, run_dir=run_dir) for arg in FIELD_MAP_RUNS[command]]
        assert cli.main([*argv, "--registry", str(registry), "--queries", str(queries), *field_map]) == 0
        files = {path.name: path.read_bytes() for path in sorted(run_dir.glob("*"))}
        return capsys.readouterr().out.replace(str(run_dir), "RUN_DIR"), files

    plain = run("plain", cli_world["registry"], cli_world["queries"])
    assert reads.count("field map file") == 0
    renamed = run("renamed", renamed_world["registry"], renamed_world["queries"],
                  "--field-map", str(renamed_world["field_map"]))
    assert reads.count("field map file") == 1
    assert renamed == plain
    assert re.search(r'over 2 queries -> RUN_DIR|"count": 2,', plain[0])
    assert sorted(plain[1]) == ([] if command == "stats" else
                                ["config.json", "per_query.jsonl", "summary.json"])


# -- configuration layering ------------------------------------------------------


def test_config_written_before_any_work(tmp_path, capsys):
    out = tmp_path / "out"
    code = cli.main(
        ["build", "--registry", str(tmp_path / "missing.jsonl"), "--out", str(out)]
    )
    assert code == 3
    assert "error category=data:" in capsys.readouterr().err
    assert (out / "config.json").exists()


def test_flag_beats_env_beats_config_file(tmp_path, monkeypatch):
    cfg = tmp_path / "conf.json"
    cfg.write_text(json.dumps({"workers": 5, "chat_model": "file-model"}), encoding="utf-8")
    monkeypatch.setenv("TAXONAV_WORKERS", "7")

    out = tmp_path / "env_wins"
    cli.main(
        [
            "build",
            "--config", str(cfg),
            "--registry", str(tmp_path / "missing.jsonl"),
            "--out", str(out),
        ]
    )
    doc = json.loads((out / "config.json").read_text(encoding="utf-8"))
    assert doc["workers"] == 7
    assert doc["chat_model"] == "file-model"

    out = tmp_path / "flag_wins"
    cli.main(
        [
            "build",
            "--config", str(cfg),
            "--workers", "11",
            "--registry", str(tmp_path / "missing.jsonl"),
            "--out", str(out),
        ]
    )
    assert json.loads((out / "config.json").read_text(encoding="utf-8"))["workers"] == 11


# RuntimeConfig field -> (its value in a config file, its flag's argument)
FLAG_VALUES = {
    "backend": ("http", "mock"),
    "endpoint": ("http://file.local/v1", "http://flag.local/v1"),
    "chat_model": ("file-chat", "flag-chat"),
    "embedding_model": ("file-embed", "flag-embed"),
    "workers": (5, "7"),
    "retries": (2, "4"),
    "retry_backoff": (0.5, "0.25"),
    "cache_dir": ("file-cache", "flag-cache"),
    "script": ("file-script.json", "flag-script.json"),
}
# subcommand -> its required arguments
REQUIRED = {
    "build": ["--registry", "r", "--out", "o"],
    "build-oneshot": ["--registry", "r", "--out", "o"],
    "search": ["--registry", "r", "--taxonomy", "t", "--query", "q"],
    "eval": ["--registry", "r", "--taxonomy", "t", "--queries", "q", "--run-dir", "d"],
    "baseline": ["--registry", "r", "--method", "embed", "--queries", "q", "--run-dir", "d"],
}


@pytest.mark.parametrize("command", sorted(REQUIRED))
def test_every_runtime_field_but_the_api_key_is_a_flag_that_beats_the_config_file(
    tmp_path, monkeypatch, command
):
    for suffix in cli._ENV_KEYS:
        monkeypatch.delenv(cli.ENV_PREFIX + suffix, raising=False)
    fields = [f.name for f in dataclasses.fields(cli.RuntimeConfig) if f.name != "api_key"]
    assert sorted(FLAG_VALUES) == sorted(fields)
    flags = {action.dest: action.option_strings[-1] for action in cli._backend_parent()._actions}
    assert set(fields) <= set(flags)

    config = tmp_path / "conf.json"
    config.write_text(json.dumps({name: file for name, (file, _) in FLAG_VALUES.items()}))
    argv = [command, *REQUIRED[command], "--config", str(config)]
    from_file = cli.resolve_runtime(cli.build_parser().parse_args(argv))
    assert {name: getattr(from_file, name) for name in fields} == {
        name: file for name, (file, _) in FLAG_VALUES.items()
    }
    for name, (_, flag) in FLAG_VALUES.items():
        argv += [flags[name], flag]
    from_flags = cli.resolve_runtime(cli.build_parser().parse_args(argv))
    assert {name: getattr(from_flags, name) for name in fields} == {
        name: type(file)(flag) for name, (file, flag) in FLAG_VALUES.items()
    }
    assert from_flags.api_key is None


def test_api_key_comes_from_env_and_is_never_persisted(tmp_path, monkeypatch):
    monkeypatch.setenv("TAXONAV_API_KEY", "super-secret-token")
    out = tmp_path / "out"
    cli.main(["build", "--registry", str(tmp_path / "missing.jsonl"), "--out", str(out)])
    raw = (out / "config.json").read_text(encoding="utf-8")
    assert "super-secret-token" not in raw
    assert "api_key" not in json.loads(raw)


def test_api_key_in_config_file_is_rejected(tmp_path, capsys):
    cfg = tmp_path / "conf.json"
    cfg.write_text(json.dumps({"api_key": "oops"}), encoding="utf-8")
    code = cli.main(
        ["build", "--config", str(cfg), "--registry", "r.jsonl", "--out", str(tmp_path / "o")]
    )
    assert code == 3
    assert "TAXONAV_API_KEY environment variable" in capsys.readouterr().err


def test_unknown_config_key_is_rejected(tmp_path, capsys):
    cfg = tmp_path / "conf.json"
    cfg.write_text(json.dumps({"bogus": 1}), encoding="utf-8")
    code = cli.main(
        ["build", "--config", str(cfg), "--registry", "r.jsonl", "--out", str(tmp_path / "o")]
    )
    assert code == 3
    assert "unknown config key 'bogus'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"workers": "8"}, "'workers' in {path} must be an integer, not '8'"),
        ({"workers": True}, "'workers' in {path} must be an integer, not True"),
        ({"retries": 2.5}, "'retries' in {path} must be an integer, not 2.5"),
        ({"retry_backoff": "x"}, "'retry_backoff' in {path} must be a finite number, not 'x'"),
        ({"retry_backoff": float("inf")}, "'retry_backoff' in {path} must be a finite number, not inf"),
        ({"chat_model": 5}, "'chat_model' in {path} must be a string, not 5"),
        ({"endpoint": None}, "'endpoint' in {path} must be a string, not None"),
        ({"cache_dir": ["x"]}, "'cache_dir' in {path} must be a string or null, not ['x']"),
    ],
    ids=["string-workers", "bool-workers", "float-retries", "string-backoff", "inf-backoff",
         "int-model", "null-endpoint", "list-cache-dir"],
)
def test_a_config_value_of_the_wrong_type_exits_3(tmp_path, capsys, doc, message):
    cfg = tmp_path / "conf.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    code = cli.main(
        ["build", "--config", str(cfg), "--registry", "r.jsonl", "--out", str(tmp_path / "o")]
    )
    assert code == 3
    assert capsys.readouterr().err == (
        f"error category=data: config key {message.format(path=cfg)}\n"
    )


def test_every_config_field_has_a_type_check():
    # field_types raises KeyError for an annotation it has no test for
    for cls in (cli.RuntimeConfig, FieldMap, PerQueryRecord, Summary):
        assert list(field_types(cls)) == [f.name for f in dataclasses.fields(cls)]


def test_a_config_file_may_set_the_optional_paths_to_null(tmp_path):
    cfg = tmp_path / "conf.json"
    doc = {"cache_dir": None, "script": None, "retry_backoff": 0, "workers": 2, "chat_model": "m"}
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "o"
    code = cli.main(
        ["build", "--config", str(cfg), "--registry", str(tmp_path / "missing.jsonl"), "--out", str(out)]
    )
    assert code == 3  # the registry is missing; the config was accepted and persisted
    persisted = json.loads((out / "config.json").read_text(encoding="utf-8"))
    assert {key: persisted[key] for key in doc} == doc


@pytest.mark.parametrize("backoff", ["inf", "nan", "-1"])
def test_a_retry_backoff_that_is_not_a_finite_non_negative_number_exits_3(tmp_path, capsys, backoff):
    code = cli.main(
        ["build", "--retry-backoff", backoff, "--registry", "r.jsonl", "--out", str(tmp_path / "o")]
    )
    assert code == 3
    assert capsys.readouterr().err == (
        f"error category=data: retry_backoff must be a finite number >= 0, not {float(backoff)!r}\n"
    )


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--theta-kw", "0", "thresholds must be positive"),
        ("--theta-leaf", "0", "thresholds must be positive"),
        ("--max-depth", "0", "max_depth must be at least 1"),
        ("--generic-ratio", "0", "generic_ratio must be in (0, 1]"),
        ("--max-categories", "1", "max_categories must allow at least 2 drafts"),
        ("--max-refine-iterations", "-5", "max_refine_iterations must be non-negative"),
        ("--keyword-batch-size", "0", "keyword_batch_size must be positive"),
        ("--tiny-merge-threshold", "-1", "tiny_merge_threshold must be non-negative"),
    ],
)
def test_a_build_threshold_out_of_range_exits_3_before_config_is_written(
    tmp_path, capsys, flag, value, message
):
    out = tmp_path / "o"
    code = cli.main(["build", flag, value, "--registry", "r.jsonl", "--out", str(out)])
    assert code == 3
    assert capsys.readouterr().err == f"error category=data: {message}\n"
    assert not (out / cli.CONFIG_FILE).exists()


def test_the_http_backend_serves_both_roles():
    cfg = cli.RuntimeConfig(backend="http", endpoint="http://llm.local/v1", api_key="sk-test")
    gateway = cli.make_gateway(cfg)
    assert isinstance(gateway.chat_backend, HttpBackend)
    assert gateway.embedding_backend is gateway.chat_backend
    assert (gateway.chat_backend.endpoint, gateway.chat_backend.api_key) == (
        "http://llm.local/v1", "sk-test"
    )


def test_malformed_env_value_is_rejected(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("TAXONAV_WORKERS", "many")
    code = cli.main(["build", "--registry", "r.jsonl", "--out", str(tmp_path / "o")])
    assert code == 3
    assert "TAXONAV_WORKERS must be a int" in capsys.readouterr().err


def test_http_backend_requires_endpoint(tmp_path, capsys):
    code = cli.main(
        ["build", "--backend", "http", "--registry", "r.jsonl", "--out", str(tmp_path / "o")]
    )
    assert code == 3
    assert "needs an endpoint" in capsys.readouterr().err


@pytest.mark.parametrize(
    "script, message",
    [
        ({"rules": [{"pattern": "x", "reply": "1"}, {"reply": "1"}]},
         "mock script rules[1] needs a string 'pattern'"),
        ([{"pattern": "x", "reply": "1"}], "must hold a JSON object"),
        ({"embedding_dim": "x"}, "'embedding_dim' must be a positive integer"),
        ({"rules": [{"pattern": "(", "reply": "1"}]}, "mock script rules[0] 'pattern' is not a valid regex"),
        ({"rules": [{"pattern": "x", "label": 3, "reply": "1"}]}, "rules[0] needs a string 'label'"),
        ({"rules": [{"pattern": "x", "reply": []}]}, "rules[0] needs a 'reply' string or non-empty list"),
        ({"rules": [{"pattern": "x", "reply": "1", "output_tokens": -1}]},
         "rules[0] 'output_tokens' must be a non-negative integer"),
        ({"rules": {"pattern": "x"}}, "'rules' must be a list"),
        ({"embeddings": {"a": [0.1, 0.9]}}, "'embeddings' must map texts to lists of 8 numbers"),
        ({"embeddings": {"a": [float("nan")] * 8}}, "'embeddings' must map texts to lists of 8 numbers"),
    ],
    ids=["no-pattern", "top-level-list", "dim-str", "bad-regex", "label-int", "empty-reply",
         "negative-tokens", "rules-object", "short-vector", "nan-vector"],
)
def test_malformed_mock_script_exits_3(cli_world, tmp_path, capsys, script, message):
    path = tmp_path / "script.json"
    path.write_text(json.dumps(script), encoding="utf-8")
    code = cli.main(
        ["build", "--registry", str(cli_world["registry"]), "--script", str(path),
         "--out", str(tmp_path / "o")]
    )
    assert code == 3
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, what",
    [("--config", "config file"), ("--script", "mock script"), ("--field-map", "field map file")],
)
def test_an_input_file_that_is_not_utf8_exits_3(cli_world, tmp_path, capsys, flag, what):
    path = tmp_path / "input.json"
    path.write_bytes(b'{"\xff": 1}')
    code = cli.main(
        ["build", "--registry", str(cli_world["registry"]), flag, str(path),
         "--out", str(tmp_path / "o")]
    )
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error category=data: cannot read {what} {path}: ")
    assert "can't decode byte 0xff in position 2: invalid start byte" in err


def test_a_registry_that_is_not_utf8_exits_3(cli_world, tmp_path, capsys):
    path = tmp_path / "registry.jsonl"
    path.write_bytes(cli_world["registry"].read_bytes() + b'{"id": "\xff"}\n')
    offset = path.read_bytes().index(b"\xff")
    assert cli.main(["stats", "--registry", str(path)]) == 3
    assert capsys.readouterr().err == (
        f"error category=data: {path}: line 10: not UTF-8 (invalid start byte at byte {offset})\n"
    )


HUGE = "7" * 5000  # past the interpreter's int-string digit limit
DEEP = "[" * 100_000 + "]" * 100_000  # past the recursion limit

# input file -> the command that reads it; {dir} is the file's directory
READS = {
    "registry.jsonl": ["stats", "--registry", "{path}"],
    "registry.json": ["stats", "--registry", "{path}", "--format", "json"],
    "config.json": ["build", "--registry", "{registry}", "--config", "{path}", "--out", "{dir}/o"],
    "script.json": ["build", "--registry", "{registry}", "--script", "{path}", "--out", "{dir}/o"],
    "field_map.json": ["stats", "--registry", "{registry}", "--field-map", "{path}"],
    "taxonomy.json": ["stats", "--taxonomy", "{dir}"],
    "summary.json": ["compare", "{dir}"],
}
SUMMARY = {
    "method": "taxonomy", "dataset": "d", "setting": "", "query_count": 1, "failure_count": 0,
    "hit_rate": 1.0, "recall": 1.0, "precision": 1.0, "tokens_per_query": 9.0, "calls_per_query": 2.0,
}


@pytest.mark.parametrize(
    "name, text, message",
    [
        ("registry.jsonl", '{"id": "a", "name": "A", "description": "d"}\n{"id": ' + HUGE + "}\n",
         "{path}: line 2: unreadable JSON ("),
        ("registry.json", DEEP, "{path}: JSON nests too deeply\n"),
        ("registry.jsonl", DEEP + "\n", "{path}: line 1: JSON nests too deeply\n"),
        ("config.json", DEEP, "config file {path}: JSON nests too deeply\n"),
        ("config.json", '{"workers": ' + HUGE + "}", "config file {path}: unreadable JSON ("),
        ("script.json", DEEP, "mock script {path}: JSON nests too deeply\n"),
        ("field_map.json", DEEP, "field map file {path}: JSON nests too deeply\n"),
        ("field_map.json", "[]", "field map file {path} must hold a JSON object\n"),
        ("field_map.json", '{"id": []}', "field map file {path} field 'id' must be a string\n"),
        ("config.json", "{,}", "config file {path}: invalid JSON (Expecting property name "
         "enclosed in double quotes)\n"),
        ("taxonomy.json", DEEP, "{path}: JSON nests too deeply\n"),
        ("summary.json", "3", "run {dir}: summary.json must hold a JSON object\n"),
        ("summary.json", json.dumps({**SUMMARY, "hit_rate": "x"}),
         "run {dir}: summary field 'hit_rate' must be a finite number\n"),
    ],
    ids=["jsonl-registry-huge-integer", "json-registry-deep", "jsonl-registry-deep", "config-deep",
         "config-huge-integer", "script-deep", "field-map-deep", "field-map-array", "field-map-list",
         "config-invalid", "taxonomy-deep", "summary-number", "summary-string-rate"],
)
def test_an_input_the_json_decoder_rejects_exits_3(cli_world, tmp_path, capsys, name, text, message):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    (tmp_path / "class.json").write_text("{}", encoding="utf-8")
    fields = {"path": path, "dir": tmp_path, "registry": cli_world["registry"]}
    assert cli.main([arg.format(**fields) for arg in READS[name]]) == 3
    assert capsys.readouterr().err.startswith("error category=data: " + message.format(**fields))


def test_an_inline_field_map_that_is_not_json_exits_3(cli_world, capsys):
    code = cli.main(["stats", "--registry", str(cli_world["registry"]), "--field-map", "{id: 1}"])
    assert code == 3
    assert capsys.readouterr().err == (
        "error category=data: field map: invalid JSON "
        "(Expecting property name enclosed in double quotes)\n"
    )


@pytest.mark.parametrize(
    "field_map, message",
    [
        ("{bad", "error category=data: field map: invalid JSON"),
        ('{"id": []}', "error category=data: field map field 'id' must be a string"),
        ('{"nope": "x"}', "error category=data: unknown field map keys: nope"),
    ],
)
def test_a_bad_field_map_exits_3_with_only_a_taxonomy(cli_world, capsys, field_map, message):
    code = cli.main(["stats", "--taxonomy", str(cli_world["out"]), "--field-map", field_map])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.err.startswith(message)
    assert captured.out == ""


def test_build_and_search_flag_defaults_are_the_config_defaults():
    args = cli.build_parser().parse_args(["eval", "--registry", "r", "--queries", "q",
                                          "--taxonomy", "t", "--run-dir", "d"])
    assert SearchConfig(mode=args.mode, merge_threshold=args.theta_merge) == SearchConfig()
    args = cli.build_parser().parse_args(["build", "--registry", "r", "--out", "o"])
    assert cli._build_config(args) == BuildConfig()


def test_help_of_every_subcommand_names_the_threshold_metavars(capsys):
    thresholds = ["--theta-kw THETA_KW", "--theta-leaf THETA_LEAF"] * 2  # usage, then options
    expected = {"build": thresholds, "build-oneshot": thresholds, "search": [], "eval": [],
                "baseline": [], "stats": [], "compare": []}
    found = {}
    for command in expected:
        assert cli.main([command, "--help"]) == 0
        found[command] = re.findall(r"--theta-(?:kw|leaf) [A-Z_]+", capsys.readouterr().out)
    assert found == expected


CHAT_ONLY = """
import json, sys
before = set(sys.modules)
from taxonav import baselines, builder, cli, eval_harness, gateway, search

def loaded():
    return sorted({"numpy", "_hashlib"} & (set(sys.modules) - before))

on_import = loaded()
registry, queries, build_script, search_script, out = sys.argv[1:]
built = cli.main(["build", "--registry", registry, "--script", build_script,
                  "--out", out + "/tax", "--theta-leaf", "3"])
evaluated = cli.main(["eval", "--registry", registry, "--queries", queries,
                      "--taxonomy", out + "/tax", "--script", search_script,
                      "--run-dir", out + "/run"])
print(json.dumps([on_import, built, evaluated, loaded()]))
"""


def test_build_and_eval_load_neither_numpy_nor_openssl(cli_world, tmp_path):
    """Building and searching are text calls only: numpy is for the embedding
    baseline, and OpenSSL's hash module (_hashlib) for the embedding cache
    key. Neither is loaded by importing the package or by a mock build and
    eval through the CLI."""
    stdout = run_fresh(
        CHAT_ONLY,
        *(str(cli_world[key]) for key in ("registry", "queries", "build_script", "search_script")),
        str(tmp_path),
    )
    assert json.loads(stdout.splitlines()[-1]) == [[], 0, 0, []]
    assert (tmp_path / "tax" / "taxonomy.json").read_bytes() == (
        cli_world["out"] / "taxonomy.json"
    ).read_bytes()


# -- exit codes -------------------------------------------------------------------


def test_usage_errors_exit_2(capsys):
    assert cli.main([]) == 2
    assert cli.main(["build"]) == 2  # missing --registry/--out
    assert cli.main(["nonsense"]) == 2
    capsys.readouterr()


def test_invalid_choice_exits_2(cli_world, capsys):
    code = cli.main(
        [
            "search",
            "--registry", str(cli_world["registry"]),
            "--taxonomy", str(cli_world["out"]),
            "--query", "x",
            "--mode", "bogus",
        ]
    )
    assert code == 2
    capsys.readouterr()


def test_transport_failure_exits_4(cli_world, capsys):
    code = cli.main(
        [
            "search",
            "--backend", "http",
            "--endpoint", "http://127.0.0.1:9",
            "--retries", "1",
            "--registry", str(cli_world["registry"]),
            "--taxonomy", str(cli_world["out"]),
            "--query", "alpha things",
        ]
    )
    assert code == 4
    assert capsys.readouterr().err.startswith("error category=backend:")


# -- every loader, any bytes ----------------------------------------------------

LOADER_KEYS = sorted(
    {*SUMMARY, *READS, *(f.name for f in dataclasses.fields(cli.RuntimeConfig)),
     *(f.name for f in dataclasses.fields(PerQueryRecord)), "id", "name", "description",
     "source", "text", "ground_truth", "root", "nodes", "boundary", "children", "services",
     "depth", "rules", "default_reply", "embedding_dim", "embeddings", "pattern", "label", "reply"}
)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(LOADER_KEYS) | st.text(max_size=3), inner, max_size=8),
    max_leaves=16,
)
huge_integers = st.integers(4301, 6000).map(lambda digits: "9" * digits)
nested = st.builds(
    lambda depth, opener, leaf: opener * depth + leaf + {"[": "]", '{"a": ': "}"}[opener] * depth,
    st.integers(0, 100_000), st.sampled_from(["[", '{"a": ']), st.just("1") | huge_integers,
)
documents = st.one_of(
    st.binary(max_size=100),
    st.lists(json_values.map(json.dumps) | nested, min_size=1, max_size=3).map(
        lambda lines: "\n".join(lines).encode("utf-8")
    ),
    st.builds(lambda key, digits: f'{{"{key}": {digits}}}'.encode(), st.sampled_from(LOADER_KEYS),
              huge_integers),
)

ONE_NODE_TAXONOMY = json.dumps({
    "root": "root",
    "nodes": [{"id": "root", "name": "All", "description": "", "boundary": "", "children": [],
               "services": [], "depth": 0}],
}).encode()


def _write(path: Path, data: bytes) -> Path:
    path.write_bytes(data)
    return path


def _one_service(directory: Path) -> Path:
    return _write(directory / "one.jsonl", b'{"id": "s1", "name": "n", "description": "d"}\n')


def _cli(argv: list[str], *allowed: int) -> None:
    code = cli.main(argv)
    assert code in allowed, code


LOADERS = {
    "registry-jsonl": lambda d, data: load_registry(_write(d / "r.jsonl", data)),
    "registry-json": lambda d, data: load_registry(_write(d / "r.json", data), format="json"),
    "queries": lambda d, data: load_queries(
        _write(d / "q.jsonl", data), Registry([Service("s1", "n", "d")])
    ),
    "taxonomy-json": lambda d, data: (
        _write(d / "class.json", b"{}"),
        taxonomy_io.load(_write(d / "taxonomy.json", data).parent),
    ),
    "class-json": lambda d, data: (
        _write(d / "taxonomy.json", ONE_NODE_TAXONOMY),
        taxonomy_io.load(_write(d / "class.json", data).parent),
    ),
    "summary": lambda d, data: load_summary(_write(d / "summary.json", data).parent),
    "per-query": lambda d, data: load_records(_write(d / "per_query.jsonl", data).parent),
    # the registry is missing, so a config that reads passes on to exit 3 too
    "cli-config": lambda d, data: _cli(
        ["build", "--config", str(_write(d / "c.json", data)), "--registry", str(d / "missing"),
         "--out", str(d / "o")], 3,
    ),
    # one service is a leaf at once: a build that reads the script makes no call
    "cli-script": lambda d, data: _cli(
        ["build", "--script", str(_write(d / "s.json", data)), "--registry", str(_one_service(d)),
         "--out", str(d / "o")], 0, 3,
    ),
    "cli-field-map": lambda d, data: _cli(
        ["stats", "--field-map", str(_write(d / "f.json", data)), "--registry", str(_one_service(d))],
        0, 3,
    ),
}


@pytest.mark.parametrize("loader", sorted(LOADERS))
@settings(max_examples=60, deadline=None)
@given(data=documents)
def test_every_loader_returns_or_raises_a_package_error(loader, data):
    """Random bytes, random JSON with the loaders' own keys, nesting up to
    100,000 deep and integers past the digit limit: every file loader, and
    every CLI reader, returns or fails with a DiscoveryError (exit 3)."""
    with tempfile.TemporaryDirectory() as tmp:
        try:
            LOADERS[loader](Path(tmp), data)
        except DiscoveryError:
            pass
