"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main

_SMALL_CAMPAIGN = ["campaign", "--tile", "16", "16", "4", "--iterations", "8",
                   "--repetitions", "6"]


@pytest.fixture
def restore_defaults(monkeypatch):
    """Undo the process-wide defaults ``main`` installs from its flags."""
    from repro.backends import registry
    from repro.parallel import executor

    for module, name in (
        (executor, "_DEFAULT_EXECUTOR_OVERRIDE"),
        (executor, "_DEFAULT_WORKERS_OVERRIDE"),
        (registry, "_DEFAULT_OVERRIDE"),
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

    def test_distributed_parser_defaults(self):
        args = build_parser().parse_args(["distributed"])
        assert args.ranks == 4
        assert args.iters == 50
        assert args.backend is None
        assert args.boundary == "clamp"

    @pytest.mark.parametrize("crash_iter", ["0", "50"])
    def test_distributed_crash_iter_out_of_range(self, crash_iter):
        with pytest.raises(SystemExit, match="--crash-iter") as exc:
            main(["distributed", "--ranks", "3", "--iters", "8",
                  "--size", "24", "--crash-iter", crash_iter])
        assert str(exc.value).startswith("error: ")

    @pytest.mark.parametrize("crash_iter", ["0", "99"])
    def test_campaign_crash_iter_out_of_range(self, crash_iter):
        with pytest.raises(SystemExit, match="--crash-iter") as exc:
            main(["campaign", "--tile", "16", "16", "4", "--iterations", "8",
                  "--repetitions", "2", "--fault-model", "rank-crash",
                  "--crash-iter", crash_iter])
        assert str(exc.value).startswith("error: ")

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
        with pytest.raises(SystemExit) as exc:
            main(command + flags)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        (line,) = [l for l in err.splitlines() if "error:" in l]
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
        assert set(payload) == {"fused", "numpy"}
        assert payload["numpy"] == []
        assert [e["kind"] for e in payload["fused"]] == ["flat"]
