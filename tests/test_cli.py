"""Unit tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.cli import (
    SpecError,
    main,
    parse_protocol,
    parse_run,
    parse_topology,
    topology_size,
)
from repro.core.run import chain_run, good_run
from repro.core.topology import Topology


class TestTopologySpecs:
    @pytest.mark.parametrize(
        "spec, expected",
        [
            ("pair", Topology.pair()),
            ("path:4", Topology.path(4)),
            ("ring:5", Topology.ring(5)),
            ("star:4", Topology.star(4)),
            ("complete:3", Topology.complete(3)),
            ("grid:2x3", Topology.grid(2, 3)),
        ],
    )
    def test_valid_specs(self, spec, expected):
        assert parse_topology(spec) == expected

    @pytest.mark.parametrize("bad", ["hex", "path", "grid:2", "ring:x"])
    def test_invalid_specs(self, bad):
        with pytest.raises(SpecError):
            parse_topology(bad)
        with pytest.raises(SpecError):
            topology_size(bad)

    @pytest.mark.parametrize(
        "spec", ["pair", "path:4", "ring:5", "star:4", "complete:3", "grid:2x3"]
    )
    def test_size_is_the_built_process_count(self, spec):
        assert topology_size(spec) == parse_topology(spec).num_processes

    def test_size_reads_huge_specs_without_building(self):
        assert topology_size("complete:1000000") == 10**6
        assert topology_size("grid:1000x2000") == 2 * 10**6

    def test_cli_has_no_size_bound(self):
        assert parse_topology("path:100").num_processes == 100


class TestRunSpecs:
    def test_good(self, pair):
        assert parse_run("good", pair, 4) == good_run(pair, 4)

    def test_cut(self, pair):
        run = parse_run("cut:2", pair, 4)
        assert all(m.round < 2 for m in run.messages)

    def test_chain(self, pair):
        assert parse_run("chain:3", pair, 5) == chain_run(5, 3)
        assert parse_run("chain", pair, 5) == chain_run(5, None)

    def test_chain_requires_pair(self, path3):
        with pytest.raises(SpecError, match="pair"):
            parse_run("chain:2", path3, 4)

    def test_tree(self, path3):
        run = parse_run("tree", path3, 4)
        assert run.inputs == frozenset([1])

    def test_loss_deterministic_by_seed(self, pair):
        first = parse_run("loss:0.4:7", pair, 5)
        second = parse_run("loss:0.4:7", pair, 5)
        assert first == second

    def test_unknown_run(self, pair):
        with pytest.raises(SpecError, match="unknown run"):
            parse_run("flood", pair, 4)


class TestProtocolSpecs:
    def test_s_with_epsilon(self):
        protocol = parse_protocol("S:0.25", 8)
        assert protocol.epsilon == 0.25

    def test_s_defaults_to_one_over_n(self):
        protocol = parse_protocol("S", 8)
        assert protocol.epsilon == pytest.approx(1 / 8)

    def test_a(self):
        assert parse_protocol("A", 6).num_rounds == 6

    def test_w(self):
        assert parse_protocol("W:3", 9).threshold == 3
        assert parse_protocol("W", 9).threshold == 3

    def test_repeated_a(self):
        protocol = parse_protocol("repeatedA:2:all", 8)
        assert protocol.copies == 2
        assert protocol.combiner == "all"

    def test_baselines(self):
        assert parse_protocol("never", 4).name == "never-attack"
        assert parse_protocol("input-attack", 4).name == "input-attack"

    def test_unknown_protocol(self):
        with pytest.raises(SpecError, match="unknown protocol"):
            parse_protocol("byzantine", 4)


class TestCommands:
    def test_simulate(self, capsys):
        code = main(
            [
                "simulate",
                "--topology", "pair",
                "--rounds", "6",
                "--protocol", "S:0.2",
                "--run", "good",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "P[total attack]" in out
        assert "closed-form" in out

    def test_search(self, capsys):
        code = main(
            ["search", "--topology", "pair", "--rounds", "3",
             "--protocol", "A"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "0.5" in out
        assert "exact" in out

    def test_level(self, capsys):
        code = main(
            ["level", "--topology", "pair", "--rounds", "4", "--run", "good"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "L(R) = 5" in out
        assert "ML(R) = 4" in out

    def test_validity_pass(self, capsys):
        code = main(
            ["validity", "--topology", "pair", "--rounds", "4",
             "--protocol", "S:0.2"]
        )
        assert code == 0
        assert "validity holds" in capsys.readouterr().out

    def test_experiments_delegation(self, capsys):
        code = main(["experiments", "E1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "[E1]" in out

    def test_bad_spec_exits_with_usage_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["simulate", "--topology", "hex"])


class TestWitnessRoundTrip:
    def test_search_saves_and_simulate_loads(self, tmp_path, capsys):
        witness_path = tmp_path / "witness.json"
        code = main(
            [
                "search",
                "--topology", "pair",
                "--rounds", "4",
                "--protocol", "S:0.25",
                "--save-witness", str(witness_path),
            ]
        )
        assert code == 0
        assert witness_path.exists()
        capsys.readouterr()

        code = main(
            [
                "simulate",
                "--topology", "pair",
                "--rounds", "4",
                "--protocol", "S:0.25",
                "--run", f"file:{witness_path}",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "0.25" in out  # the witness reproduces U = eps

    def test_run_file_horizon_mismatch(self, tmp_path):
        from repro.core.run import good_run
        from repro.core.serialization import run_to_json
        from repro.core.topology import Topology

        path = tmp_path / "run.json"
        path.write_text(run_to_json(good_run(Topology.pair(), 3)))
        with pytest.raises(SpecError, match="N=3"):
            parse_run(f"file:{path}", Topology.pair(), 5)


class TestProcessCounts:
    def test_caret_notation(self):
        from repro.cli import _parse_process_counts

        assert _parse_process_counts("10^3,10^6") == [1000, 1000000]

    def test_plain_and_mixed(self):
        from repro.cli import _parse_process_counts

        assert _parse_process_counts("100, 10^4 ,7") == [100, 10000, 7]

    @pytest.mark.parametrize("bad", ["ten", "10^x", "", " , "])
    def test_rejects_junk(self, bad):
        from repro.cli import _parse_process_counts

        with pytest.raises(SpecError):
            _parse_process_counts(bad)


class TestMeanfieldCommands:
    def test_parse_protocol_m(self):
        protocol = parse_protocol("M:0.6", 4)
        assert protocol.name == "protocol-M(q=0.6)"
        assert parse_protocol("M", 4).name == "protocol-M(q=0.5)"

    def test_simulate_meanfield_backend(self, capsys):
        code = main(
            [
                "simulate",
                "--topology", "complete:4",
                "--rounds", "3",
                "--protocol", "M:0.5",
                "--run", "good",
                "--backend", "meanfield",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "P[total attack]" in out

    def test_scale_sweep(self, capsys):
        code = main(
            [
                "scale-sweep",
                "--processes", "10^3,10^6",
                "--rounds", "6",
                "--protocol", "S:0.015625",
                "--engine-stats",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "1000000" in out
        assert "counter abstraction" in out
        assert "meanfield evaluations" in out

    def test_scale_sweep_does_not_certify_protocol_w(self, capsys):
        # U_s(W) = 1, but the class-uniform family can only reach 0 on
        # W: printing that 0 as the family maximum would be vacuous.
        code = main(
            ["scale-sweep", "--processes", "10^3,10^6", "--protocol", "W:2",
             "--rounds", "6"]
        )
        assert code == 0
        rows = [
            line.split()
            for line in capsys.readouterr().out.splitlines()
            if line.split()[:1] in (["1000"], ["1000000"])
        ]
        assert len(rows) == 2
        for row in rows:
            assert row[2:4] == ["not", "certified"]

    def test_scale_sweep_rejects_incompatible_protocol(self, capsys):
        code = main(
            ["scale-sweep", "--processes", "100", "--protocol", "A",
             "--rounds", "4"]
        )
        assert code != 0
        err = capsys.readouterr().err
        assert "counter" in err.lower()
