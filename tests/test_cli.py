"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


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


class TestKernelListing:
    """`repro backends --kernels` against a jit=False compiled backend."""

    @pytest.fixture
    def compiled_cli(self, tmp_path, monkeypatch):
        from repro import cli
        from repro.backends.codegen import KernelCompiler
        from repro.backends.numba_backend import NumbaBackend
        from repro.stencil.boundary import BoundaryCondition
        from repro.stencil.kernels import five_point_diffusion

        backend = NumbaBackend(
            compiler=KernelCompiler(cache_dir=tmp_path, jit=False)
        )
        backend.warmup(
            five_point_diffusion(0.2),
            boundary=BoundaryCondition.periodic(),
            external_axes=(0,),
        )
        monkeypatch.setattr(cli, "available_backends", lambda: ["numba"])
        monkeypatch.setattr(cli, "default_backend_name", lambda: "numba")
        monkeypatch.setattr(cli, "get_backend", lambda name=None: backend)
        monkeypatch.setattr(cli, "unavailable_backends", lambda: {})
        return backend

    def test_kernels_listing_spells_out_signatures(self, compiled_cli, capsys):
        assert main(["backends", "--kernels"]) == 0
        out = capsys.readouterr().out
        assert " step " in out
        # Full cache-key identity, never truncated: every entry spells
        # out the complete spec signature (the digest is only a prefix).
        for e in compiled_cli.compiled_kernels():
            assert f"spec   {e['spec']}" in out
            assert len(e["spec"]) > len(e["digest"])

    def test_kernels_json_dump(self, compiled_cli, capsys):
        import json

        assert main(["backends", "--kernels", "--json"]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        entries = payload["numba"]
        assert entries
        assert {e["kind"] for e in entries} == {"sweep", "step"}
        step = next(e for e in entries if e["kind"] == "step")
        assert "external" in step["layout"]
