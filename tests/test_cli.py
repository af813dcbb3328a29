"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main

_SMALL_CAMPAIGN = ["campaign", "--tile", "16", "16", "4", "--iterations", "8",
                   "--repetitions", "6"]


@pytest.fixture
def restore_defaults(monkeypatch):
    """Undo the process-wide defaults ``main`` installs from its flags."""
    from repro.parallel import executor

    for module, name in (
        (executor, "_DEFAULT_EXECUTOR_OVERRIDE"),
        (executor, "_DEFAULT_WORKERS_OVERRIDE"),
    ):
        monkeypatch.setattr(module, name, getattr(module, name))


def _campaign_results(monkeypatch):
    """Collect every result ``CampaignEngine.run`` returns."""
    from repro.faults.engine import CampaignEngine

    results = []
    run = CampaignEngine.run

    def spy(self, *args, **kwargs):
        results.append(run(self, *args, **kwargs))
        return results[-1]

    monkeypatch.setattr(CampaignEngine, "run", spy)
    return results


def _usage_error_line(capsys, argv):
    """Run ``main(argv)``; assert exit 2 and return the one ``error:`` line."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    (line,) = [l for l in err.splitlines() if "error:" in l]
    assert line.startswith(f"repro-abft {argv[0]}: error: ")
    return line


def _record_keys(result):
    return [
        (r.run_index, r.arithmetic_error, r.errors_detected,
         r.errors_corrected, r.errors_uncorrected,
         tuple((p.iteration, p.index, p.bit, p.target) for p in r.faults))
        for r in result.records
    ]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands(self):
        parser = build_parser()
        for command in ("table1", "figure8", "figure9", "figure10", "figure11",
                        "sensitivity", "all"):
            args = parser.parse_args([command])
            assert args.command == command
            assert args.scale == "quick"

    def test_scale_choices(self):
        parser = build_parser()
        args = parser.parse_args(["table1", "--scale", "paper"])
        assert args.scale == "paper"
        with pytest.raises(SystemExit):
            parser.parse_args(["table1", "--scale", "huge"])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--version"])
        assert "repro-abft" in capsys.readouterr().out


class TestMain:
    def test_table1_runs_and_prints(self, capsys):
        assert main(["table1", "--scale", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "Stencil iterations" in out

    def test_output_file_written(self, tmp_path, capsys):
        target = tmp_path / "table1.txt"
        assert main(["table1", "--scale", "smoke", "--output", str(target)]) == 0
        capsys.readouterr()
        assert target.exists()
        assert "Table 1" in target.read_text()

    def test_figure11_smoke(self, capsys):
        assert main(["figure11", "--scale", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "Figure 11" in out
        assert "Period" in out

    def test_sensitivity_smoke(self, capsys):
        assert main(["sensitivity", "--scale", "smoke"]) == 0
        assert "Detection sensitivity" in capsys.readouterr().out

    def test_distributed_smoke(self, capsys):
        assert main(["distributed", "--ranks", "3", "--iters", "4",
                     "--size", "32"]) == 0
        out = capsys.readouterr().out
        assert "3 ranks, 4 iterations" in out
        assert "gather checksum" in out
        assert "halo traffic" in out
        assert out.count("rank ") == 3
        assert "detected 0, corrected 0" in out

    def test_distributed_no_protect(self, capsys):
        assert main(["distributed", "--ranks", "2", "--iters", "2",
                     "--size", "24", "--no-protect"]) == 0
        out = capsys.readouterr().out
        assert "unprotected" in out
        assert "totals" not in out

    def test_distributed_periodic_one_exchange_per_step(self, capsys):
        assert main(["distributed", "--ranks", "3", "--iters", "6",
                     "--size", "32", "--no-protect",
                     "--boundary", "periodic"]) == 0
        out = capsys.readouterr().out
        # 6 iterations x 3 ring interfaces x 2 directions.
        assert "36 messages" in out

    def test_distributed_halo_traffic_excludes_checkpoints(self, capsys):
        assert main(["distributed", "--ranks", "4", "--iters", "20",
                     "--size", "64", "--checkpoint-period", "4"]) == 0
        out = capsys.readouterr().out
        # 20 iterations x 3 interfaces x 2 directions of 64 float32 each;
        # the buddy checkpoints are reported on their own line.
        assert "halo traffic    : 120 messages, 30720 bytes" in out
        assert "48 messages, 134656 bytes to buddies" in out

    def test_distributed_parser_defaults(self):
        args = build_parser().parse_args(["distributed"])
        assert args.ranks == 4
        assert args.iters == 50
        assert args.boundary == "clamp"

    @pytest.mark.parametrize("crash_iter", ["0", "50"])
    def test_distributed_crash_iter_out_of_range(self, capsys, crash_iter):
        line = _usage_error_line(
            capsys, ["distributed", "--ranks", "3", "--iters", "8",
                     "--size", "24", "--crash-iter", crash_iter])
        assert "--crash-iter" in line

    @pytest.mark.parametrize("crash_iter", ["0", "99"])
    def test_campaign_crash_iter_out_of_range(self, capsys, crash_iter):
        line = _usage_error_line(
            capsys, ["campaign", "--tile", "16", "16", "4", "--iterations",
                     "8", "--repetitions", "2", "--fault-model", "rank-crash",
                     "--crash-iter", crash_iter])
        assert "--crash-iter" in line

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["distributed", "--ranks", "0"], "--ranks"),
            (["distributed", "--iters", "-1"], "--iters"),
            (["distributed", "--checkpoint-period", "0"],
             "--checkpoint-period"),
            (["distributed", "--ranks", "40"], "cannot split"),
            (["distributed", "--ranks", "3", "--crash-rank", "5"],
             "--crash-rank 5"),
            (_SMALL_CAMPAIGN + ["--iterations", "0"], "--iterations"),
            (_SMALL_CAMPAIGN + ["--repetitions", "0"], "--repetitions"),
            (_SMALL_CAMPAIGN + ["--batch", "0"], "--batch"),
            (["distributed", "--size", "-3"], "--size"),
            (_SMALL_CAMPAIGN + ["--workers", "0"], "--workers"),
            (_SMALL_CAMPAIGN + ["--tile", "0", "16", "4"], "--tile"),
            (_SMALL_CAMPAIGN + ["--method", "offline-abft", "--period", "0"],
             "--period"),
            (["figure8", "--scale", "smoke", "--workers", "0"], "--workers"),
        ],
        ids=[
            "ranks-0", "iters-negative", "checkpoint-period-0",
            "more-ranks-than-rows", "crash-rank",
            "campaign-iterations-0", "campaign-repetitions-0",
            "campaign-batch-0", "size-negative", "campaign-workers-0",
            "campaign-tile-0", "campaign-period-0", "experiment-workers-0",
        ],
    )
    def test_bad_flag_exits_2_with_one_line(
        self, capsys, restore_defaults, flags, named
    ):
        # A small distributed run; a later flag overrides an earlier one.
        base = ["--size", "16", "--iters", "4"] if flags[0] == "distributed" else []
        argv = flags[:1] + base + flags[1:]
        assert named in _usage_error_line(capsys, argv)

    @pytest.mark.parametrize(
        "flags, named",
        [
            # Ghost and payload regions need a distributed run, so no
            # campaign model draws them.
            (["--fault-model", "region-ghost"],
             "unknown fault model 'region-ghost'"),
            (["--fault-model", "region-payload"],
             "unknown fault model 'region-payload'"),
            (["--fault-model", "rank-crash", "--method", "offline-abft"],
             "'offline-abft'"),
            (["--fault-model", "region-checksum", "--method", "no-abft"],
             "'no-abft' holds none"),
        ],
        ids=["ghost", "payload", "crash-offline", "checksum-unprotected"],
    )
    def test_campaign_refuses_plans_it_cannot_fire_before_the_run(
        self, capsys, monkeypatch, flags, named
    ):
        results = _campaign_results(monkeypatch)
        argv = ["campaign", "--tile", "8", "8", "2", "--iterations", "4",
                "--repetitions", "2", *flags]
        assert named in _usage_error_line(capsys, argv)
        assert results == []

    def test_bad_workers_variable_exits_2_listing_executors(
        self, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_WORKERS", "abc")
        assert "REPRO_WORKERS" in _usage_error_line(capsys, ["executors"])

    def test_distributed_crash_iter_in_range_recovers(self, capsys):
        assert main(["distributed", "--ranks", "3", "--iters", "8",
                     "--size", "24", "--crash-iter", "8"]) == 0
        assert "recovery        : 1 rank failure" in capsys.readouterr().out

    def test_campaign_bit_flags_reach_the_default_model(
        self, capsys, monkeypatch
    ):
        # --bit and --faults-per-run configure the bitflip model, which
        # is also the model a campaign runs without --fault-model.
        results = _campaign_results(monkeypatch)
        assert main(_SMALL_CAMPAIGN + ["--bit", "30",
                                       "--faults-per-run", "2"]) == 0
        (result,) = results
        assert [len(r.faults) for r in result.records] == [2] * 6
        assert {p.bit for r in result.records for p in r.faults} == {30}
        assert "(model bitflip)" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--fault-model", "mtbf", "--mtbf", "4", "--faults-per-run",
              "3", "--burst-size", "9"], ["--faults-per-run", "'mtbf'"]),
            (["--fault-model", "burst", "--crash-rank", "2", "--crash-iter",
              "3", "--mtbf", "2"], ["--crash-rank", "'burst'"]),
            # The model itself refuses a pinned iteration with an MTBF.
            (["--fault-model", "rank-crash-mtbf", "--crash-iter", "3"],
             ["'rank-crash-mtbf'", "at_iteration"]),
        ],
        ids=["flag-of-other-models", "crash-flags-on-burst", "model-refuses"],
    )
    def test_campaign_refuses_fault_flags_its_model_does_not_take(
        self, capsys, flags, named
    ):
        with pytest.raises(SystemExit) as exc:
            main(_SMALL_CAMPAIGN + flags)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        for text in named:
            assert text in err

    def test_campaign_model_defaults_come_from_the_model(self, monkeypatch):
        results = _campaign_results(monkeypatch)
        assert main(_SMALL_CAMPAIGN + ["--fault-model", "mtbf"]) == 0
        assert main(_SMALL_CAMPAIGN + ["--fault-model", "mtbf",
                                       "--mtbf", "64"]) == 0
        default, explicit = results
        assert _record_keys(default) == _record_keys(explicit)

    def test_campaign_names_the_registered_model(self, capsys):
        assert main(_SMALL_CAMPAIGN + ["--fault-model", "region-checksum"]) == 0
        assert "(model region-checksum)" in capsys.readouterr().out

    def test_campaign_mtbf_reaches_rank_crash(self, monkeypatch):
        # RankCrash has an mtbf field: an arrival mean far beyond the
        # horizon crashes no run, where the uniform draw crashes each.
        results = _campaign_results(monkeypatch)
        assert main(_SMALL_CAMPAIGN + ["--fault-model", "rank-crash",
                                       "--mtbf", "1e9"]) == 0
        (result,) = results
        assert not any(p.target == "crash"
                       for r in result.records for p in r.faults)

    @pytest.mark.parametrize(
        "command",
        [_SMALL_CAMPAIGN, ["figure8", "--scale", "smoke"]],
        ids=["campaign", "figure8"],
    )
    @pytest.mark.parametrize(
        "variable, value, flags",
        [
            ("REPRO_EXECUTOR", "bogus", []),
            ("REPRO_WORKER_TIMEOUT", "abc", []),
            ("REPRO_WORKERS", "abc", ["--executor", "threads"]),
        ],
        ids=["executor", "worker-timeout", "workers"],
    )
    def test_bad_environment_setting_exits_2_with_one_line(
        self, capsys, monkeypatch, restore_defaults, command, variable,
        value, flags,
    ):
        monkeypatch.setenv(variable, value)
        line = _usage_error_line(capsys, command + flags)
        assert repr(value) in line
        if variable != "REPRO_EXECUTOR":
            assert variable in line

    def test_all_reuses_figure8_campaigns_for_figure9(
        self, capsys, monkeypatch
    ):
        from repro.experiments import campaign_runner, figure8, figure9
        from repro.experiments.common import EvaluationScale

        calls = []

        def spy(scale, tile, **kwargs):
            calls.append(tile)
            return campaign_runner.run_tile_campaigns(scale, tile, **kwargs)

        monkeypatch.setattr(figure8, "run_tile_campaigns", spy)
        monkeypatch.setattr(figure9, "run_tile_campaigns", spy)
        assert main(["all", "--scale", "smoke"]) == 0
        out = capsys.readouterr().out
        scale = EvaluationScale.smoke()
        assert sorted(calls) == sorted(scale.tile_sizes)
        # Figure 9 from its own campaigns reads the same.
        own = figure9.format_figure9(figure9.run_figure9(scale))
        assert own in out


class TestFlatKernelState:
    """`repro backends` names the fused backend's flat kernel state."""

    @staticmethod
    def _fused_lines(out):
        lines = out.splitlines()
        i = next(i for i, line in enumerate(lines) if line.startswith("fused "))
        return lines[i + 1]

    @staticmethod
    def _json(capsys):
        import json

        assert main(["backends", "--json"]) == 0
        return json.loads(capsys.readouterr().out)

    def test_compiled_library_with_path_and_compiler(self, capsys, monkeypatch):
        from pathlib import Path

        from repro.backends import native

        lib = native.NativeLibrary(
            path=Path("/cache/native_flat_0123456789abcdef.so"),
            compiler="cc (Example) 1.2.3",
            digest="0123456789abcdef",
            from_disk=True,
            build_ms=0.0,
            load_ms=0.2,
            sweep={},
            fold={},
            interp={},
            compare={},
        )
        monkeypatch.setattr(native, "_state", lib)
        assert main(["backends"]) == 0
        line = self._fused_lines(capsys.readouterr().out)
        assert line.split() == [
            "flat", "kernels", "compiled:",
            "/cache/native_flat_0123456789abcdef.so", "(cc", "(Example)", "1.2.3)",
        ]
        assert self._json(capsys)["fused"] == [{
            "kind": "flat",
            "path": "/cache/native_flat_0123456789abcdef.so",
            "compiler": "cc (Example) 1.2.3",
            "reason": None,
            "from_disk": True,
            "build_ms": 0.0,
            "load_ms": 0.2,
        }]

    def test_interpreted_with_the_named_reason(self, capsys, monkeypatch):
        from repro.backends import native

        monkeypatch.setattr(native, "_state", "no `cc` on PATH")
        assert main(["backends"]) == 0
        line = self._fused_lines(capsys.readouterr().out)
        assert line.strip() == "flat kernels interpreted: no `cc` on PATH"
        (entry,) = self._json(capsys)["fused"]
        assert entry["reason"] == "no `cc` on PATH"
        assert entry["path"] is None and entry["compiler"] is None

    def test_json_alone_prints_json(self, capsys):
        """`--json` needs no other flag, and prints nothing but JSON."""
        payload = self._json(capsys)
        assert set(payload) == {"fused"}
        assert [e["kind"] for e in payload["fused"]] == ["flat"]
