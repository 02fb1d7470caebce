"""CLI tests: build / info / estimate / compare round-trips."""

import pytest

from repro.cli import main
from repro.datasets import clear_dataset_cache
from repro.serve import protocol


@pytest.fixture(scope="module")
def sketch_path(tmp_path_factory):
    """Build a tiny sketch once via the CLI itself."""
    path = str(tmp_path_factory.mktemp("cli") / "tiny.sketch")
    code = main(
        [
            "build",
            "--dataset", "imdb",
            "--scale", "0.05",
            "--queries", "300",
            "--epochs", "3",
            "--samples", "50",
            "--hidden", "16",
            "--out", path,
        ]
    )
    assert code == 0
    return path


class TestBuild:
    def test_build_creates_file(self, sketch_path, capsys):
        import os

        assert os.path.exists(sketch_path)

    def test_build_progress_printed(self, tmp_path, capsys):
        path = str(tmp_path / "p.sketch")
        main(
            [
                "build", "--dataset", "imdb", "--scale", "0.05",
                "--queries", "200", "--epochs", "2", "--samples", "40",
                "--hidden", "8", "--out", path,
            ]
        )
        out = capsys.readouterr().out
        assert "epoch 1" in out
        assert "saved" in out


class TestInfo:
    def test_info_fields(self, sketch_path, capsys):
        assert main(["info", sketch_path]) == 0
        out = capsys.readouterr().out
        assert "tables" in out
        assert "title" in out
        assert "footprint" in out

    def test_missing_file_is_error(self, capsys):
        assert main(["info", "/nonexistent/path.sketch"]) == 1
        assert "error" in capsys.readouterr().err


class TestEstimate:
    def test_estimate_prints_number(self, sketch_path, capsys):
        code = main(
            [
                "estimate", sketch_path,
                "SELECT COUNT(*) FROM title t WHERE t.production_year>2000;",
            ]
        )
        assert code == 0
        value = float(capsys.readouterr().out.strip())
        assert value >= 1.0

    def test_bad_sql_is_error(self, sketch_path, capsys):
        assert main(["estimate", sketch_path, "SELECT nonsense"]) == 1
        assert "error" in capsys.readouterr().err

    def test_out_of_scope_table_is_error(self, sketch_path, capsys):
        assert main(["estimate", sketch_path, "SELECT COUNT(*) FROM keyword k;"]) == 1


class TestCompare:
    def test_compare_table(self, sketch_path, capsys):
        code = main(
            [
                "compare", "--dataset", "imdb", "--scale", "0.05",
                sketch_path,
                "SELECT COUNT(*) FROM title t, movie_keyword mk "
                "WHERE mk.movie_id=t.id AND t.production_year>2000;",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "truth" in out
        assert "Deep Sketch" in out
        assert "PostgreSQL" in out


def leaves(tree) -> list[str]:
    """The aliases of a wire join tree (an alias, or [left, right])."""
    return [tree] if isinstance(tree, str) else leaves(tree[0]) + leaves(tree[1])


class TestPlan:
    JOIN_SQL = (
        "SELECT COUNT(*) FROM title t,movie_keyword mk,movie_info mi "
        "WHERE mk.movie_id=t.id AND mi.movie_id=t.id;"
    )

    def test_plan_prints_structured_json(self, sketch_path, capsys):
        import json

        assert main(["plan", self.JOIN_SQL, sketch_path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True and payload["error"] is None
        assert sorted(leaves(payload["plan"])) == ["mi", "mk", "t"]
        assert len(payload["subplans"]) == 6  # connected subsets of a star
        assert payload["estimated_cost"] > 0
        assert payload["estimate_ms"] is not None
        # the wire's own envelope, not a CLI-only shape
        assert protocol.plan_response_from_wire(payload).ok

    def test_plan_failure_is_structured_and_exit_1(self, sketch_path, capsys):
        import json

        assert main(["plan", "SELECT nonsense", sketch_path]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["code"] == "parse"
        assert payload["plan"] is None

    def test_remote_plan_matches_local(self, sketch_path, capsys, monkeypatch):
        """`repro plan --url` against `repro serve --http` chooses the
        same join order as `repro plan` over the local file."""
        import json

        import repro.cli as cli

        assert main(["plan", self.JOIN_SQL, sketch_path]) == 0
        local = json.loads(capsys.readouterr().out)

        remote = {}

        def driver(server):
            remote["code"] = main(["plan", "--url", server.url, self.JOIN_SQL])
            remote["payload"] = json.loads(capsys.readouterr().out)

        monkeypatch.setattr(cli, "_http_wait", driver)
        assert main(["serve", sketch_path, "--http", "--port", "0"]) == 0
        capsys.readouterr()
        assert remote["code"] == 0
        assert remote["payload"]["plan"] == local["plan"]
        assert remote["payload"]["estimated_cost"] == pytest.approx(
            local["estimated_cost"]
        )


class TestServe:
    def test_serve_sql_file(self, sketch_path, tmp_path, capsys):
        sql_file = tmp_path / "queries.sql"
        sql_file.write_text(
            "# serving smoke workload\n"
            "SELECT COUNT(*) FROM title t WHERE t.production_year>2000;\n"
            "\n"
            "SELECT COUNT(*) FROM title t, movie_keyword mk "
            "WHERE mk.movie_id=t.id AND t.production_year>2000;\n"
            "SELECT COUNT(*) FROM title t WHERE t.production_year>2000;\n"
        )
        # The repeated query is merged onto the first at intake, so one
        # micro-batch of the two distinct queries answers all three.
        code = main(["serve", sketch_path, "--sql", str(sql_file), "--max-batch", "2"])
        captured = capsys.readouterr()
        assert code == 0
        lines = captured.out.strip().splitlines()
        assert len(lines) == 3  # one per query, comments/blanks skipped
        assert lines[2] == lines[0]  # third query repeats the first
        assert "1 forward batches" in captured.err
        assert "served 3/3" in captured.err

    def test_serve_isolates_bad_sql(self, sketch_path, tmp_path, capsys):
        sql_file = tmp_path / "queries.sql"
        sql_file.write_text(
            "SELECT nonsense;\n"
            "SELECT COUNT(*) FROM title t WHERE t.production_year>2000;\n"
        )
        code = main(["serve", sketch_path, "--sql", str(sql_file)])
        captured = capsys.readouterr()
        assert code == 1  # errors occurred, but the stream was served
        lines = captured.out.strip().splitlines()
        assert lines[0].startswith("error")
        assert not lines[1].startswith("error")

    def test_serve_async_matches_sync(self, sketch_path, tmp_path, capsys):
        sql_file = tmp_path / "queries.sql"
        sql_file.write_text(
            "SELECT COUNT(*) FROM title t WHERE t.production_year>2000;\n"
            "SELECT COUNT(*) FROM title t WHERE t.production_year>1990;\n"
        )
        assert main(["serve", sketch_path, "--sql", str(sql_file)]) == 0
        sync_out = capsys.readouterr().out
        code = main(
            ["serve", sketch_path, "--sql", str(sql_file),
             "--async", "--max-wait-ms", "20"]
        )
        captured = capsys.readouterr()
        assert code == 0
        # Same rounded estimates down both paths, plus async wait stats.
        sync_estimates = [line.split("\t")[0] for line in sync_out.splitlines()]
        async_estimates = [
            line.split("\t")[0] for line in captured.out.splitlines()
        ]
        assert async_estimates == sync_estimates
        assert "async waits" in captured.err

    def test_serve_async_isolates_bad_sql(self, sketch_path, tmp_path, capsys):
        sql_file = tmp_path / "queries.sql"
        sql_file.write_text(
            "SELECT nonsense;\n"
            "SELECT COUNT(*) FROM title t WHERE t.production_year>2000;\n"
        )
        code = main(["serve", sketch_path, "--sql", str(sql_file), "--async"])
        captured = capsys.readouterr()
        assert code == 1
        lines = captured.out.strip().splitlines()
        assert lines[0].startswith("error")
        assert not lines[1].startswith("error")

    def test_serve_matches_estimate(self, sketch_path, tmp_path, capsys):
        sql = "SELECT COUNT(*) FROM title t WHERE t.production_year>2000;"
        assert main(["estimate", sketch_path, sql]) == 0
        single = float(capsys.readouterr().out.strip())
        sql_file = tmp_path / "q.sql"
        sql_file.write_text(sql + "\n")
        assert main(["serve", sketch_path, "--sql", str(sql_file)]) == 0
        served = float(capsys.readouterr().out.split("\t")[0])
        # Both commands print rounded estimates, so exact match expected.
        assert served == single


class TestServeFlags:
    """The engine knobs exposed by `repro serve` (PR-4) actually bind."""

    @pytest.fixture()
    def sql_file(self, tmp_path):
        path = tmp_path / "queries.sql"
        path.write_text(
            "SELECT COUNT(*) FROM title t WHERE t.production_year>2000;\n"
            "SELECT COUNT(*) FROM title t WHERE t.production_year>1990;\n"
            "SELECT COUNT(*) FROM title t WHERE t.production_year>1995;\n"
        )
        return str(path)

    def _snapshot(self, err: str) -> dict:
        import json

        lines = [l for l in err.splitlines() if l.startswith("stats_summary: ")]
        assert len(lines) == 1, err
        return json.loads(lines[0].removeprefix("stats_summary: "))

    def test_executor_and_workers_flags(self, sketch_path, sql_file, capsys):
        code = main(
            ["serve", sketch_path, "--sql", sql_file,
             "--executor", "process", "--workers", "3"]
        )
        captured = capsys.readouterr()
        assert code == 0
        snapshot = self._snapshot(captured.err)
        assert snapshot["executor"] == "process"
        assert snapshot["executor_workers"] == 3
        assert "executor=process" in captured.err

    def test_max_queue_depth_flag_sheds_the_tail(
        self, sketch_path, sql_file, capsys
    ):
        # Without --async the whole stream is buffered, so a depth bound below
        # the stream length sheds its tail.
        code = main(
            ["serve", sketch_path, "--sql", sql_file, "--max-queue-depth", "1"]
        )
        captured = capsys.readouterr()
        assert code == 1  # sheds are errors
        snapshot = self._snapshot(captured.err)
        assert snapshot["max_queue_depth"] == 1
        assert snapshot["shed"] == 2
        lines = captured.out.strip().splitlines()
        assert sum(1 for l in lines if l.startswith("error:shed")) == 2
        assert not lines[0].startswith("error")  # the oldest survived

    def test_deadline_flag(self, sketch_path, sql_file, capsys):
        # A generous deadline: everything must still be served, and the
        # knob must reach the engine config (visible via deadline
        # counter staying zero rather than the flag being dropped).
        code = main(
            ["serve", sketch_path, "--sql", sql_file,
             "--async", "--deadline-ms", "60000"]
        )
        captured = capsys.readouterr()
        assert code == 0
        snapshot = self._snapshot(captured.err)
        assert snapshot["deadline_missed"] == 0
        assert snapshot["answered"] == 3

    def test_stats_snapshot_printed_on_shutdown(
        self, sketch_path, sql_file, capsys
    ):
        assert main(["serve", sketch_path, "--sql", sql_file]) == 0
        snapshot = self._snapshot(capsys.readouterr().err)
        # The same shape stats_summary()/GET /v1/stats return.
        for key in ("requests", "answered", "errors", "shed",
                    "deadline_missed", "flushes", "queue_wait",
                    "flush_latency", "executor", "sketch_requests"):
            assert key in snapshot
        assert snapshot["requests"] == 3


class TestServeHttp:
    def test_http_mode_serves_real_requests(
        self, sketch_path, capsys, monkeypatch
    ):
        """`repro serve --http` binds a live front door; drive it with
        the SDK from the wait hook (what Ctrl-C-bound operators get)."""
        import repro.cli as cli
        from repro.serve import RemoteSketchServer

        seen = {}

        def driver(server):
            with RemoteSketchServer(server.url) as client:
                health = client.healthz()
                ok = client.estimate(
                    "SELECT COUNT(*) FROM title t "
                    "WHERE t.production_year>2000;"
                )
                bad = client.estimate("SELECT nonsense;")
                seen.update(health=health, ok=ok, bad=bad,
                            stats=client.stats_summary())

        monkeypatch.setattr(cli, "_http_wait", driver)
        code = main(["serve", sketch_path, "--http", "--port", "0"])
        captured = capsys.readouterr()
        assert code == 0
        assert seen["health"]["status"] == "ok"
        assert seen["ok"].ok and seen["ok"].estimate > 0
        assert not seen["bad"].ok and seen["bad"].code == "parse"
        assert seen["stats"]["requests"] == 2
        assert "serving 1 sketch(es) on http://127.0.0.1:" in captured.err
        assert "stats_summary: " in captured.err

    def test_remote_estimate_cli_against_http_cli(
        self, sketch_path, capsys, monkeypatch
    ):
        """`repro estimate --url` against `repro serve --http` matches
        the local `repro estimate` output exactly (both print rounded)."""
        import repro.cli as cli

        sql = "SELECT COUNT(*) FROM title t WHERE t.production_year>2000;"
        assert main(["estimate", sketch_path, sql]) == 0
        local_out = capsys.readouterr().out.strip()

        remote = {}

        def driver(server):
            remote["code"] = main(["estimate", "--url", server.url, sql])
            remote["out"] = capsys.readouterr().out.strip()

        monkeypatch.setattr(cli, "_http_wait", driver)
        assert main(["serve", sketch_path, "--http", "--port", "0"]) == 0
        capsys.readouterr()
        assert remote["code"] == 0
        assert remote["out"] == local_out


class TestGateway:
    def test_local_fleet_mode_shards_and_serves(
        self, sketch_path, capsys, monkeypatch
    ):
        """`repro gateway sketch --shards 2 --replicas 2`: two spawned
        backends replicate the sketch; the gateway front door answers
        wire-v1 requests and merges fleet stats."""
        import repro.cli as cli
        from repro.serve import RemoteSketchServer

        seen = {}

        def driver(door):
            with RemoteSketchServer(door.url) as client:
                seen["health"] = client.healthz()
                seen["ok"] = client.estimate(
                    "SELECT COUNT(*) FROM title t "
                    "WHERE t.production_year>2000;"
                )
                seen["bad"] = client.estimate("SELECT nonsense;")
                seen["stats"] = client.stats_summary()

        monkeypatch.setattr(cli, "_http_wait", driver)
        code = main(
            ["gateway", sketch_path, "--shards", "2", "--replicas", "2",
             "--port", "0", "--health-interval", "0"]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert seen["health"]["status"] == "ok"
        assert seen["health"]["tables"]  # routing map advertised
        assert seen["ok"].ok and seen["ok"].estimate > 0
        assert not seen["bad"].ok and seen["bad"].code == "parse"
        stats = seen["stats"]
        assert set(stats) == {"gateway", "backends", "fleet"}
        assert stats["fleet"]["backends_total"] == 2
        assert stats["fleet"]["backends_live"] == 2
        assert "gateway on http://127.0.0.1:" in captured.err
        assert "over 2 backend(s) (2 live" in captured.err
        assert captured.err.count("  shard http://") == 2
        assert "stats_summary: " in captured.err

    def test_backend_mode_fronts_an_existing_server(
        self, sketch_path, capsys, monkeypatch
    ):
        import repro.cli as cli
        from repro.core import DeepSketch
        from repro.demo import SketchManager
        from repro.serve import (
            RemoteSketchServer,
            ServeConfig,
            SketchHTTPServer,
        )

        manager = SketchManager(db=None)
        manager.register_sketch(DeepSketch.load(sketch_path))
        seen = {}

        def driver(door):
            with RemoteSketchServer(door.url) as client:
                seen["ok"] = client.estimate(
                    "SELECT COUNT(*) FROM title t "
                    "WHERE t.production_year>2000;"
                )

        monkeypatch.setattr(cli, "_http_wait", driver)
        with SketchHTTPServer(manager, ServeConfig(), port=0) as backend:
            code = main(
                ["gateway", "--backend", backend.url, "--port", "0",
                 "--health-interval", "0"]
            )
        capsys.readouterr()
        assert code == 0
        assert seen["ok"].ok and seen["ok"].estimate > 0

    def test_shard_assignment_round_robin(self):
        from repro.cli import _shard_assignments

        # 3 sketches over 3 shards, 2-way replication: every shard gets
        # exactly 2 sketches and every sketch lands on exactly 2 shards
        shards = _shard_assignments(3, 3, 2)
        assert shards == [[0, 2], [0, 1], [1, 2]]
        # no replication: one sketch per shard
        assert _shard_assignments(2, 2, 1) == [[0], [1]]


class TestBadFlagCombinations:
    def test_estimate_sketch_and_url_conflict(self, sketch_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["estimate", sketch_path, "SELECT COUNT(*) FROM title t;",
                  "--url", "http://127.0.0.1:1"])
        assert excinfo.value.code == 2

    def test_estimate_needs_sketch_or_url(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["estimate", "SELECT COUNT(*) FROM title t;"])
        assert excinfo.value.code == 2

    def test_plan_sketches_and_url_conflict(self, sketch_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["plan", "SELECT COUNT(*) FROM title t;", sketch_path,
                  "--url", "http://127.0.0.1:1"])
        assert excinfo.value.code == 2

    def test_plan_needs_sketches_or_url(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["plan", "SELECT COUNT(*) FROM title t;"])
        assert excinfo.value.code == 2

    def test_serve_http_excludes_async(self, sketch_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", sketch_path, "--http", "--async"])
        assert excinfo.value.code == 2

    def test_serve_port_requires_http(self, sketch_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", sketch_path, "--port", "8080"])
        assert excinfo.value.code == 2

    def test_serve_host_requires_http(self, sketch_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", sketch_path, "--host", "0.0.0.0"])
        assert excinfo.value.code == 2

    def test_serve_http_excludes_sql_stream(self, sketch_path, tmp_path):
        # --sql would be silently ignored by the front door; reject it
        # instead of dropping the user's query file on the floor.
        sql_file = tmp_path / "q.sql"
        sql_file.write_text("SELECT COUNT(*) FROM title t;\n")
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", sketch_path, "--http", "--sql", str(sql_file)])
        assert excinfo.value.code == 2

    def test_serve_rejects_unknown_executor(self, sketch_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", sketch_path, "--executor", "gpu"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "flags",
        [["--executor", "thread"], ["--shed-policy", "oldest"]],
        ids=["thread-executor", "shed-policy"],
    )
    def test_serve_rejects_removed_options(self, sketch_path, flags):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", sketch_path, *flags])
        assert excinfo.value.code == 2

    def test_bench_serve_is_not_a_subcommand(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["bench-serve"])
        assert excinfo.value.code == 2

    def test_gateway_needs_sketches_or_backends(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["gateway"])
        assert excinfo.value.code == 2

    def test_gateway_rejects_sketches_plus_backends(self, sketch_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["gateway", sketch_path, "--backend", "http://127.0.0.1:1"])
        assert excinfo.value.code == 2

    def test_gateway_rejects_replicas_beyond_shards(self, sketch_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["gateway", sketch_path, "--shards", "2", "--replicas", "3"])
        assert excinfo.value.code == 2

    def test_gateway_backend_mode_rejects_shard_flags(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["gateway", "--backend", "http://127.0.0.1:1",
                  "--replicas", "2"])
        assert excinfo.value.code == 2


class TestWorkload:
    @pytest.fixture(scope="class")
    def suite_path(self, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("wl") / "suite.json")
        code = main(
            [
                "workload", "generate",
                "--dataset", "imdb",
                "--scale", "0.05",
                "--templates", "4",
                "--per-template", "4",
                "--max-joins", "2",
                "--seed", "21",
                "--out", path,
            ]
        )
        assert code == 0
        return path

    def test_generate_writes_loadable_suite(self, suite_path, capsys):
        import json

        from repro.workload import TemplateSuite

        with open(suite_path) as handle:
            suite = TemplateSuite.from_json(json.load(handle))
        assert len(suite) == 4
        assert not suite.labeled

    def test_generate_label_attaches_cardinalities(self, tmp_path, capsys):
        import json

        from repro.workload import TemplateSuite

        path = str(tmp_path / "labeled.json")
        code = main(
            [
                "workload", "generate",
                "--dataset", "imdb", "--scale", "0.05",
                "--templates", "3", "--per-template", "3",
                "--max-joins", "1", "--seed", "22",
                "--label", "--out", path,
            ]
        )
        assert code == 0
        with open(path) as handle:
            suite = TemplateSuite.from_json(json.load(handle))
        assert suite.labeled
        assert all(len(e) >= 2 for e in suite)  # --min-per-template default

    def test_split_by_template_is_leak_free(self, suite_path, tmp_path, capsys):
        import json

        from repro.workload import TemplateSuite

        train_out = str(tmp_path / "train.json")
        test_out = str(tmp_path / "test.json")
        code = main(
            [
                "workload", "split", suite_path,
                "--test-fraction", "0.25", "--seed", "1",
                "--train-out", train_out, "--test-out", test_out,
            ]
        )
        assert code == 0
        with open(train_out) as handle:
            train = TemplateSuite.from_json(json.load(handle))
        with open(test_out) as handle:
            test = TemplateSuite.from_json(json.load(handle))
        assert not set(train.names) & set(test.names)
        assert len(train) + len(test) == 4

    def test_split_within_keeps_all_templates(self, suite_path, tmp_path, capsys):
        import json

        from repro.workload import TemplateSuite

        train_out = str(tmp_path / "train.json")
        test_out = str(tmp_path / "test.json")
        code = main(
            [
                "workload", "split", suite_path, "--within",
                "--test-fraction", "0.5", "--seed", "1",
                "--train-out", train_out, "--test-out", test_out,
            ]
        )
        assert code == 0
        with open(train_out) as handle:
            train = TemplateSuite.from_json(json.load(handle))
        with open(test_out) as handle:
            test = TemplateSuite.from_json(json.load(handle))
        assert train.names == test.names

    def test_replay_local_prints_audit(self, suite_path, sketch_path, capsys):
        import json

        code = main(
            [
                "workload", "replay", suite_path, sketch_path,
                "--requests", "24", "--time-scale", "0",
                "--seed", "2", "--max-batch", "8",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        audit = json.loads(captured.out)
        assert audit["ok"] is True
        assert audit["n_unresolved"] == 0
        assert audit["n_ok"] + audit["n_failed"] == 24

    def test_replay_needs_target(self, suite_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["workload", "replay", suite_path])
        assert excinfo.value.code == 2

    def test_replay_rejects_url_plus_sketches(self, suite_path, sketch_path):
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["workload", "replay", suite_path, sketch_path,
                 "--url", "http://127.0.0.1:1"]
            )
        assert excinfo.value.code == 2


class TestLifecycleCLI:
    """repro lifecycle: the registry's operator surface, end to end."""

    @pytest.fixture()
    def registry_dir(self, tmp_path):
        return str(tmp_path / "registry")

    def _save(self, sketch_path, registry_dir, *extra):
        return main(
            ["lifecycle", "save", sketch_path, "--registry", registry_dir,
             *extra]
        )

    def test_save_assigns_versions(self, sketch_path, registry_dir, capsys):
        assert self._save(sketch_path, registry_dir, "--note", "first") == 0
        assert "saved 'imdb-sketch' as version 1 (active)" in (
            capsys.readouterr().out
        )
        assert self._save(sketch_path, registry_dir) == 0
        assert "version 2 (active)" in capsys.readouterr().out

    def test_save_no_activate_stages(self, sketch_path, registry_dir, capsys):
        self._save(sketch_path, registry_dir)
        capsys.readouterr()
        assert self._save(sketch_path, registry_dir, "--no-activate") == 0
        assert "version 2 (inactive)" in capsys.readouterr().out
        assert main(["lifecycle", "list", "--registry", registry_dir]) == 0
        assert "active v1" in capsys.readouterr().out

    def test_list_empty_registry(self, registry_dir, capsys):
        assert main(["lifecycle", "list", "--registry", registry_dir]) == 0
        assert "registry is empty" in capsys.readouterr().out

    def test_list_and_status(self, sketch_path, registry_dir, capsys):
        import json

        self._save(sketch_path, registry_dir)
        self._save(sketch_path, registry_dir)
        capsys.readouterr()
        assert main(["lifecycle", "list", "--registry", registry_dir]) == 0
        assert "imdb-sketch: 2 version(s), active v2" in (
            capsys.readouterr().out
        )
        assert main(["lifecycle", "status", "--registry", registry_dir]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["imdb-sketch"]["active"] == 2
        assert status["imdb-sketch"]["versions"] == [1, 2]

    def test_pin_and_rollback_restore_a_version(
        self, sketch_path, registry_dir, tmp_path, capsys
    ):
        from repro.core import DeepSketch

        for _ in range(3):
            self._save(sketch_path, registry_dir)
        assert main(
            ["lifecycle", "pin", "imdb-sketch", "1",
             "--registry", registry_dir]
        ) == 0
        capsys.readouterr()
        restored_path = str(tmp_path / "restored.sketch")
        assert main(
            ["lifecycle", "rollback", "imdb-sketch",
             "--registry", registry_dir, "--out", restored_path]
        ) == 0
        out = capsys.readouterr().out
        assert "rolled 'imdb-sketch' back to version 1" in out
        assert restored_path in out
        # The written blob is a loadable sketch carrying its version.
        restored = DeepSketch.load(restored_path)
        assert restored.metadata["registry_version"] == 1
        assert main(["lifecycle", "list", "--registry", registry_dir]) == 0
        assert "active v1, pinned v1" in capsys.readouterr().out

    def test_rollback_with_nothing_earlier_is_an_error(
        self, sketch_path, registry_dir, capsys
    ):
        self._save(sketch_path, registry_dir)
        capsys.readouterr()
        assert main(
            ["lifecycle", "rollback", "imdb-sketch",
             "--registry", registry_dir]
        ) == 1
        assert "nothing to roll back to" in capsys.readouterr().err

    def test_pin_unknown_sketch_is_an_error(self, registry_dir, capsys):
        assert main(
            ["lifecycle", "pin", "ghost", "1", "--registry", registry_dir]
        ) == 1
        assert "error" in capsys.readouterr().err


def teardown_module():
    clear_dataset_cache()
