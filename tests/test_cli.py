"""Command-line surface: subcommands, config files, exit codes, outputs."""

import hashlib
import io
import json
from fractions import Fraction
from types import SimpleNamespace

import pytest

from agreelab import cli, dynamics, scenarios
from agreelab.bounds import DEFAULT_EPS_GRID, qn_bounds
from agreelab.cli import build_parser, main
from agreelab.harness import PASS, RNG_VERSION, Check, SweepTable, VerificationReport
from agreelab.knowledge import DEFAULT_ENUMERATION_BUDGET, OutcomeSpace, own_signal_partitions
from agreelab.scenarios import iid_binary
from agreelab.signals import belief_tail_cdf


def run_cli(*argv):
    return main(list(argv))


def body_digest(capsys) -> str:
    """sha256 of the captured output after its generator line, which names
    the numpy version."""
    generator, body = capsys.readouterr().out.split("\n", 1)
    assert generator.startswith("# generator=")
    return hashlib.sha256(body.encode()).hexdigest()


#: An i.i.d. model whose lowest beliefs have tails of 10**-400 and 10**-800
#: under S=0, positive but below the smallest float.
UNDERFLOW_MODEL = {
    "alphabet": ["a", "b", "c"],
    "mu0": [str(Fraction(3, 4) - Fraction(1, 10**400)), "1/4", f"1/{10**400}"],
    "mu1": ["1/4", str(Fraction(3, 4) - Fraction(1, 10**800)), f"1/{10**800}"],
}


class TestScenarioList:
    def test_lists_all_families(self, capsys):
        assert run_cli("scenario", "list") == 0
        out = capsys.readouterr().out
        for name in ("parity", "iid_binary", "senate", "geometric_tail"):
            assert name in out


class TestBound:
    def test_plain_bounds(self, capsys):
        assert run_cli("bound", "--n", "100", "--param", "D=8") == 0
        out = capsys.readouterr().out
        assert "n,D,var_bound,action_bound,qn_bound" in out
        assert "100,8.0,0.07407407407407407,0.7037037037037037," in out

    def test_scenario_bounds_include_qn(self, capsys):
        code = run_cli(
            "bound",
            "--scenario", "geometric_tail",
            "--param", "K=6",
            "--param", "ratio=7/10",
            "--n", "100",
            "--eps-grid", "1e-6:0.5:128",
        )
        assert code == 0
        out = capsys.readouterr().out
        last = out.strip().splitlines()[-1]
        assert last.count(",") == 4
        assert last.split(",")[4] != ""

    def test_missing_parameters_is_usage_error(self, capsys):
        assert run_cli("bound", "--n", "10") == 1

    def test_a_grid_that_ends_just_below_one(self, capsys):
        """The grid's last point rounded to 1.0, and ``qn_bounds`` refused
        it: the command exited 4 with a traceback."""
        with pytest.raises(SystemExit) as exit_:
            cli.entry(["bound", "--scenario", "geometric_tail", "--n", "10",
                       "--eps-grid", "1e-9:0.9999999999999999:3"])
        assert exit_.value.code == 0
        assert capsys.readouterr().err == ""

    def test_a_threshold_list_from_a_config_is_the_grid(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"eps_grid": [0.01, 0.1]}))
        assert run_cli("bound", "--scenario", "geometric_tail", "--n", "10,100",
                       "--config", str(config)) == 0
        model = scenarios.geometric_tail(10).marginal_model
        expected = qn_bounds([10, 100], belief_tail_cdf(model, 0), eps_grid=(0.01, 0.1))
        assert expected != qn_bounds([10, 100], belief_tail_cdf(model, 0))
        rows = capsys.readouterr().out.splitlines()[2:]
        assert [row.split(",")[4] for row in rows] == [repr(qn) for qn in expected]

    def test_bound_csv_is_unchanged(self, capsys):
        assert run_cli("bound", "--scenario", "geometric_tail", "--n", "10,100,1000") == 0
        assert body_digest(capsys) == (
            "a24d82d6872ff1a209e2185baa02b568a725b1066922ae814b9e3921aebef749"
        )

    def test_bound_reads_one_tail_per_model(self, monkeypatch, capsys):
        """Three agent counts of one model build its cdf once and read it
        once per point of the default grid, not once per n."""
        cdfs, reads, original = [], [], cli.belief_tail_cdf

        def counted(model, state):
            cdfs.append((model, state))
            cdf = original(model, state)
            return lambda eps: reads.append(eps) or cdf(eps)

        monkeypatch.setattr(cli, "belief_tail_cdf", counted)
        assert run_cli("bound", "--scenario", "geometric_tail", "--n", "10,100,1000") == 0
        assert len(cdfs) == 1
        assert len(reads) == len(DEFAULT_EPS_GRID) == 512

    @pytest.mark.parametrize("command, extra", [("bound", {}), ("sweep", {"trials": 100})])
    def test_tails_below_the_smallest_float_are_bounded(self, command, extra, tmp_path, capsys):
        config = tmp_path / "underflow.json"
        config.write_text(json.dumps(
            {"scenario": "iid_custom", "params": {"model": UNDERFLOW_MODEL}, "n": [10], **extra}
        ))
        assert run_cli(command, "--config", str(config)) == 0
        assert ",0.6897992329287744" in capsys.readouterr().out.splitlines()[2]

    @pytest.mark.parametrize("family", ["uncorrelated_tight", "two_bit"])
    def test_each_row_is_its_n_run_alone(self, family, capsys):
        """Each row's D and qn come from the scenario built at its own n."""
        alone = []
        for n in ("8", "16"):
            assert run_cli("bound", "--scenario", family, "--n", n) == 0
            alone += capsys.readouterr().out.splitlines()[2:]
        assert run_cli("bound", "--scenario", family, "--n", "8,16") == 0
        assert capsys.readouterr().out.splitlines()[2:] == alone


class TestSimulate:
    def test_text_output(self, capsys):
        code = run_cli(
            "simulate", "--scenario", "parity", "--n", "3",
            "--protocol", "public-belief", "--trials", "500", "--seed", "7",
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "parity(3)" in out
        assert "ties=500" in out

    def test_json_output(self, tmp_path):
        out_file = tmp_path / "run.json"
        code = run_cli(
            "simulate", "--scenario", "iid_binary", "--param", "p=2/3",
            "--n", "10", "--trials", "200", "--seed", "3",
            "--format", "json", "--out", str(out_file),
        )
        assert code == 0
        data = json.loads(out_file.read_text())
        assert data["trials"] == 200
        assert data["n"] == 10

    def test_budget_exit_code(self):
        code = run_cli(
            "simulate", "--scenario", "iid_binary", "--param", "p=2/3",
            "--n", "40", "--protocol", "public-belief", "--trials", "10",
        )
        assert code == 3

    @pytest.mark.parametrize("protocol", ["public-belief", "public-action", "statistic", "network"])
    def test_first_size_over_the_budget_exits_3(self, protocol, capsys, monkeypatch):
        """The budget admits iid_binary(21), 2**22 pairs, and refuses the
        next size before building anything: no space, no count vectors."""
        assert DEFAULT_ENUMERATION_BUDGET == 2**22
        largest = iid_binary(21, Fraction(2, 3))
        assert largest.structure.pair_count(21) == DEFAULT_ENUMERATION_BUDGET

        def refused(*args):
            raise AssertionError("built before the budget check")

        monkeypatch.setattr(OutcomeSpace, "iid", refused)
        monkeypatch.setattr(dynamics, "decide_counts", refused)
        monkeypatch.setattr(scenarios, "decide_counts", refused)
        monkeypatch.setattr(dynamics, "count_odds", refused)
        code = run_cli(
            "simulate", "--scenario", "iid_binary", "--param", "p=2/3",
            "--n", "22", "--protocol", protocol, "--trials", "10",
        )
        assert code == 3
        assert capsys.readouterr().err == (
            "error: iid_binary(22, 2/3): 8388608 (state, profile) pairs exceed "
            "the exact-engine budget 4194304\n"
        )

    def test_missing_scenario_is_usage_error(self):
        assert run_cli("simulate", "--trials", "10") == 1

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            run_cli("simulate", "--bogus")
        assert excinfo.value.code == 1


class TestSweep:
    def test_csv_written(self, tmp_path):
        out_file = tmp_path / "sweep.csv"
        code = run_cli(
            "sweep", "--scenario", "iid_binary", "--param", "p=2/3",
            "--n", "10,20", "--trials", "300", "--seed", "5",
            "--format", "csv", "--out", str(out_file),
        )
        assert code == 0
        text = out_file.read_text()
        lines = text.splitlines()
        assert lines[0].startswith("# generator=")
        assert lines[1].startswith("n,trials,")
        assert len(lines) == 4
        assert text.endswith("\n")
        assert "\r" not in text

    def test_byte_identical_reruns(self, tmp_path):
        args = (
            "sweep", "--scenario", "uncorrelated_tight", "--n", "8,16",
            "--trials", "400", "--seed", "21", "--format", "csv",
        )
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert run_cli(*args, "--out", str(first)) == 0
        assert run_cli(*args, "--out", str(second)) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_config_file_with_flag_override(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {
                    "scenario": "iid_binary",
                    "params": {"p": "2/3"},
                    "n": [10],
                    "trials": 100,
                    "seed": 1,
                    "format": "json",
                }
            )
        )
        out_file = tmp_path / "sweep.json"
        code = run_cli(
            "sweep", "--config", str(config), "--seed", "2", "--out", str(out_file)
        )
        assert code == 0
        data = json.loads(out_file.read_text())
        assert data["seed"] == 2  # flag wins over the config value
        assert data["rows"][0]["summary"]["trials"] == 100


    def test_a_grid_below_every_belief_leaves_qn_blank(self, capsys):
        """A private belief of the binary model is 1/3 or 2/3, so its lower
        tail vanishes on the whole grid, up to 1e-3, and ``qn_bounds``
        raises ``BoundedBeliefsError``: qn is blank, and D stays."""
        assert run_cli("sweep", "--scenario", "iid_binary", "--param", "p=2/3", "--n", "10,20",
                       "--trials", "100", "--eps-grid", "1e-6:1e-3:8") == 0
        rows = [row.split(",") for row in capsys.readouterr().out.splitlines()[2:]]
        assert [(row[8], row[11]) for row in rows] == [("8.0", "")] * 2

    def test_a_model_no_float_tells_apart_leaves_d_blank(self, tmp_path, capsys):
        """Weights 10**-400 apart are equal as floats: D is not informative,
        and the D to qn columns stay blank while the trials still run."""
        tiny = Fraction(1, 10**400)
        model = {"alphabet": ["a", "b"], "mu0": ["1/2", "1/2"],
                 "mu1": [str(Fraction(1, 2) + tiny), str(Fraction(1, 2) - tiny)]}
        config = tmp_path / "config.json"
        config.write_text(json.dumps(
            {"scenario": "iid_custom", "params": {"model": model}, "n": [3, 5], "trials": 100}
        ))
        assert run_cli("sweep", "--config", str(config)) == 0
        rows = [row.split(",") for row in capsys.readouterr().out.splitlines()[2:]]
        assert [row[1] for row in rows] == ["100", "100"]
        assert [row[8:12] for row in rows] == [["", "", "", ""]] * 2

    def test_geometric_tail_csv_is_unchanged(self, capsys):
        """Pins the qn column, which the verify CSV does not carry."""
        code = run_cli(
            "sweep", "--scenario", "geometric_tail", "--n", "4,10,30",
            "--trials", "2000", "--seed", "3", "--format", "csv",
        )
        assert code == 0
        assert body_digest(capsys) == (
            "2bc164f98a40f2410b5f0280881a6c0c8f6119deb7ce183e4b7eb64ac22f081b"
        )


class TestVerify:
    def test_verify_passes_and_writes_report(self, tmp_path, capsys):
        out_file = tmp_path / "report.json"
        code = run_cli(
            "verify", "--seed", "13", "--trials", "2000",
            "--format", "json", "--out", str(out_file),
        )
        assert code == 0
        data = json.loads(out_file.read_text())
        names = {c["name"] for c in data["checks"]}
        assert any(n.startswith("belief-agreement") for n in names)
        assert any(n.startswith("wrong-action-bound") for n in names)
        assert any(n.startswith("estimator-deviation-variance") for n in names)
        assert any(n.startswith("tail-learning-bound") for n in names)

    def test_verify_csv_is_unchanged(self, capsys):
        """sha256 of the report after its generator line, which names the
        numpy version."""
        assert run_cli("verify", "--seed", "11", "--trials", "20000", "--format", "csv") == 0
        generator, body = capsys.readouterr().out.split("\n", 1)
        assert generator.startswith("# generator=")
        assert hashlib.sha256(body.encode()).hexdigest() == (
            "fa436fe9f960c598648252e9e1c154250984d110ec45ba89c876619b19e62e71"
        )


class TestCsvQuoting:
    def test_fields_with_commas_stay_one_column(self, tmp_path):
        import csv

        out_file = tmp_path / "report.csv"
        code = run_cli(
            "verify", "--seed", "13", "--trials", "1500",
            "--format", "csv", "--out", str(out_file),
        )
        assert code == 0
        body = out_file.read_text().split("\n", 1)[1]
        rows = [r for r in csv.reader(body.splitlines()) if r]
        assert {len(r) for r in rows} == {7}

    def test_simulate_scenario_name_roundtrips(self, tmp_path):
        import csv

        out_file = tmp_path / "run.csv"
        code = run_cli(
            "simulate", "--scenario", "iid_binary", "--param", "p=2/3",
            "--n", "10", "--trials", "50", "--seed", "1",
            "--format", "csv", "--out", str(out_file),
        )
        assert code == 0
        body = out_file.read_text().split("\n", 1)[1]
        rows = list(csv.reader(body.splitlines()))
        assert rows[1][0] == "iid_binary(10, 2/3)"

    def test_verify_detail_with_separators_reads_back(self):
        import csv

        detail = 'exact, "quoted"\nsecond line'
        report = VerificationReport(checks=[
            Check("odd,name", PASS, observed=0.1, bound=0.5, tolerance=0.0, margin=0.4,
                  detail=detail),
        ])
        generator, body = report.to_csv().split("\n", 1)
        assert generator == f"# generator={RNG_VERSION}"
        (row,) = csv.DictReader(io.StringIO(body))
        assert row == {
            "name": "odd,name", "status": PASS, "observed": "0.1", "bound": "0.5",
            "tolerance": "0.0", "margin": "0.4", "detail": detail,
        }



def report_digest(text: str) -> str:
    """sha256 of a whole report, with ``RNG_VERSION`` (which names the numpy
    version) replaced by a fixed token."""
    return hashlib.sha256(text.replace(RNG_VERSION, "<rng>").encode()).hexdigest()


#: sha256 (:func:`report_digest`) of what each command prints: the reports
#: of ``simulate``, ``sweep`` and ``verify`` in text, CSV and JSON, and two
#: ``bound`` tables.
REPORT_DIGESTS = {
    "simulate --scenario iid_binary --param p=2/3 --n 7 --trials 3000 --seed 4":
        "f9315caeddc5371fcdfbf2d6de2829f8b08b3e5da2195024e55229286bb03a10",
    "simulate --scenario iid_binary --param p=2/3 --n 7 --trials 3000 --seed 4 --format csv":
        "2e060c4c9cf1926766ff8de136e7984a2abcf9306b39d775e77d59f57dfd0c66",
    "simulate --scenario iid_binary --param p=2/3 --n 7 --trials 3000 --seed 4 --format json":
        "5105d5fcdc8c4637f8a87df67613815fc7aee78da5730d9aa922d222c1ab991a",
    "simulate --scenario senate --param senate_size=9 --n 12 --protocol public-action --trials 500":
        "764091c4b52ee9a5f50ab6d68fb968ddf8ab83f1d35499260b18676fe33cbe20",
    "simulate --scenario senate --param senate_size=9 --n 12 --protocol public-action --trials 500 --format csv":
        "d07ecfd9ae21f8d690819e145271a9227aa40c7997a640d722d8a60859443dcf",
    "simulate --scenario senate --param senate_size=9 --n 12 --protocol public-action --trials 500 --format json":
        "ed6db857c6cd72c1de4631320bb46e39825b093e1bb23e7bb398f8508407ce8a",
    "simulate --scenario parity --n 3 --protocol statistic --trials 500":
        "02ad1206d8df58bad5f48662f7daa1093aa05e9552a1e3b16754aab16e600720",
    "simulate --scenario parity --n 3 --protocol statistic --trials 500 --format csv":
        "73d64cb1ae87ae90fe9fb876413763c03ffbdb7fc7b60ae99c3ef1f5de04219a",
    "simulate --scenario parity --n 3 --protocol statistic --trials 500 --format json":
        "af73beb0d836e0c1768dfec1f4343b31035c3e058ef93720f9a33e8b771bba3c",
    "sweep --scenario iid_binary --param p=2/3 --n 10,20,50 --trials 2000 --seed 3":
        "415f1c8006bb589c66a82a495b39675d8f7a9e2d37f4b03cf087ca2cc1d06408",
    "sweep --scenario iid_binary --param p=2/3 --n 10,20,50 --trials 2000 --seed 3 --format csv":
        "415f1c8006bb589c66a82a495b39675d8f7a9e2d37f4b03cf087ca2cc1d06408",
    "sweep --scenario iid_binary --param p=2/3 --n 10,20,50 --trials 2000 --seed 3 --format json":
        "6146721b0ee41f4eb4c32e88619b070cbe4ae2b6c36bc6a2bed01d833a22ba5b",
    "sweep --scenario parity --n 2,3 --trials 100":
        "cf78175cb6e1889849d2fcfc63b618415ecf5d03c94f0e5939903077e4e2fec8",
    "sweep --scenario parity --n 2,3 --trials 100 --format csv":
        "cf78175cb6e1889849d2fcfc63b618415ecf5d03c94f0e5939903077e4e2fec8",
    "sweep --scenario parity --n 2,3 --trials 100 --format json":
        "0384e94f030ba8b2fb62025adaff0ee44fb92b496cd284480272abfd01c1766e",
    "sweep --scenario uncorrelated_tight --n 4,8 --protocol network --trials 100":
        "c437f6702d544801d1a07a2303d6e5e19bbbf79010daf838f4a610c31c5a2e6c",
    "sweep --scenario uncorrelated_tight --n 4,8 --protocol network --trials 100 --format csv":
        "c437f6702d544801d1a07a2303d6e5e19bbbf79010daf838f4a610c31c5a2e6c",
    "sweep --scenario uncorrelated_tight --n 4,8 --protocol network --trials 100 --format json":
        "f03c79ced06f5359aaaf9b30564121fc17289acddb4931017730a299e2b775ab",
    "verify --seed 1 --trials 4000":
        "bbc8af782f522b78b18bb57479353d86d0a68f89fa9a4001aa112e883ce7d22b",
    "verify --seed 1 --trials 4000 --format csv":
        "06456c68837ef1d0e36df9e0ef50318a06a7f48d1cd8b273e1adbacd542e83a0",
    "verify --seed 1 --trials 4000 --format json":
        "3d75ea42d57248df9d06ce888a01b0da8bac7fd614324d28318183beebaaf53c",
    "bound --n 10,100 --param D=8":
        "bf293df50ddd285e9f173a449822a8db534383d473a28f0f54435ffc5c7eb3d1",
    "bound --scenario geometric_tail --n 10,1000":
        "1f95d618e829b340a91a62e1586a13626e7f57e6ad3e0b55bc3259caa73028ac",
}


class TestReportBytes:
    @pytest.mark.parametrize("command", list(REPORT_DIGESTS))
    def test_report_is_unchanged(self, command, capsys):
        assert run_cli(*command.split()) == 0
        assert report_digest(capsys.readouterr().out) == REPORT_DIGESTS[command]

    def test_a_format_builds_no_text_report(self, monkeypatch, capsys):
        """Under ``--format csv`` the text report is never built, and the
        CSV is the pinned one."""
        command = "verify --seed 1 --trials 4000 --format csv"

        def refused(report):
            raise AssertionError("text report built under --format csv")

        monkeypatch.setattr(VerificationReport, "to_text", refused)
        assert run_cli(*command.split()) == 0
        assert report_digest(capsys.readouterr().out) == REPORT_DIGESTS[command]

    def test_sweep_renders_its_csv_once(self, monkeypatch, capsys):
        command = "sweep --scenario parity --n 2,3 --trials 100 --format csv"
        rendered = []
        to_csv = SweepTable.to_csv

        def counted(table):
            rendered.append(table)
            return to_csv(table)

        monkeypatch.setattr(SweepTable, "to_csv", counted)
        assert run_cli(*command.split()) == 0
        assert report_digest(capsys.readouterr().out) == REPORT_DIGESTS[command]
        assert len(rendered) == 1

    def test_protocol_trace_csv_is_unchanged(self):
        space = iid_binary(3, Fraction(2, 3)).outcome_space()
        result = dynamics.run_protocol(
            dynamics.PUBLIC_BELIEF, space, own_signal_partitions(space), (1, 0, 1)
        )
        assert report_digest(result.trace.to_csv()) == (
            "728f23dc7fad8c4c7c7f2d1313894118d9c9cb727efa53f469932c9b7eacc17c"
        )


# sha256, below the generator line, of pooled CSVs over three chunks (40,000
# trials, seed 5) as the draw that read every row's tie bound printed them:
# two symbols, 16 symbols, and the near-even model, whose every row at n = 30
# is within the tie screen.
POOLED_MULTI_CHUNK = {
    "sweep --scenario iid_binary --param p=2/3 --n 100,1000":
        "26fde4bebdcd51d6d77fc2f911dd594872cf2bb27ad437c41854c64b708b6dfa",
    "sweep --scenario geometric_tail --n 4,30,250":
        "6c7426c356057c4144914d5ba73e58a0093c98c5da71c21a9bb59ad7b54bee9e",
    "simulate --protocol pooled --config {near_even}":
        "7a14c3135c3568f99e7720963092bae06b2d63f69f77ae3ac23155934b3e97bc",
}
NEAR_EVEN_MODEL = {
    "alphabet": ["a", "b", "c"],
    "mu0": ["1/3", "1/3", "1/3"],
    "mu1": ["1000000000003/3000000000000", "1/3", "999999999997/3000000000000"],
}


@pytest.mark.parametrize("command", list(POOLED_MULTI_CHUNK))
def test_pooled_csv_over_several_chunks_is_unchanged(command, tmp_path, capsys):
    config = tmp_path / "near_even.json"
    config.write_text(json.dumps({"scenario": "iid_custom", "params": {"model": NEAR_EVEN_MODEL},
                                  "n": 30}))
    argv = command.format(near_even=config).split()
    assert run_cli(*argv, "--trials", "40000", "--seed", "5", "--format", "csv") == 0
    assert body_digest(capsys) == POOLED_MULTI_CHUNK[command]


#: The flags each subcommand reads; ``--config`` sets the same settings.
READS = {
    "simulate": ("--config", "--scenario", "--param", "--protocol", "--n", "--trials", "--seed",
                 "--format", "--out"),
    "sweep": ("--config", "--scenario", "--param", "--protocol", "--n", "--trials", "--seed",
              "--eps-grid", "--format", "--out"),
    "verify": ("--config", "--trials", "--seed", "--format", "--out"),
    "bound": ("--config", "--scenario", "--param", "--n", "--eps-grid", "--out"),
}
FLAG_VALUES = {
    "--config": "run.json", "--scenario": "parity", "--param": "D=8", "--protocol": "pooled",
    "--n": "5", "--trials": "10", "--seed": "1", "--eps-grid": "1e-3:0.5:8", "--format": "csv",
    "--out": "out.csv",
}


@pytest.mark.parametrize("command", list(READS))
@pytest.mark.parametrize("flag", list(FLAG_VALUES))
def test_each_subcommand_takes_only_the_flags_it_reads(command, flag):
    parser = build_parser()
    argv = [command, flag, FLAG_VALUES[flag]]
    if flag in READS[command]:
        assert parser.parse_args(argv).command == command
    else:
        with pytest.raises(SystemExit) as excinfo:
            parser.parse_args(argv)
        assert excinfo.value.code == 1


class TestExitCodes:
    """0 ok, 1 usage error, 2 verification failures, 3 over budget; any
    other exception is a bug and is not reported as a usage error.  Exits 0
    and 3 are pinned above (``TestBound``, ``TestSimulate``)."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("bound", "--n", "10,x", "--param", "D=8"), "--n expects"),
            (("bound", "--n", "0", "--param", "D=8"), "--n expects"),
            (("bound", "--n", "10", "--param", "D=8", "--eps-grid", "1e-3:0.5"), "--eps-grid"),
            (("bound", "--n", "10", "--param", "D=-1"), "D must be positive"),
            (("bound", "--n", "10", "--param", "D=abc"), "--param D expects a number"),
            (("simulate", "--scenario", "nope", "--n", "3"), "unknown scenario"),
            (("simulate", "--scenario", "iid_binary", "--param", "q=2/3"), "expected iid_binary(n, p)"),
            (("simulate", "--scenario", "parity", "--trials", "0"), "trials expects"),
            (("simulate", "--config", "{bad"), "config"),
            (("simulate", "--config", "[1, 2]"), "expected a JSON object"),
            (("simulate", "--config", '{"scenario": "parity", "protocol": "bogus"}'), "unknown protocol"),
            (("simulate", "--config", '{"scenario": "iid_binary", "params": {"p": "abc"}}'), "iid_binary"),
            (("simulate", "--config", "missing.json"), "No such file"),
            (("simulate", "--scenario", "iid_binary", "--param", "p=2/3", "--n", "3,40"), "use sweep"),
            (("simulate", "--config", '{"scenario": "parity", "n": [3, 4]}'), "use sweep"),
            # Numbers that int() would truncate.
            (("simulate", "--config", '{"scenario": "parity", "trials": 2.7}'), "trials expects"),
            (("simulate", "--config", '{"scenario": "parity", "trials": true}'), "trials expects"),
            (("simulate", "--config", '{"scenario": "parity", "n": [3.9]}'), "--n expects"),
            (("simulate", "--config", '{"scenario": "parity", "seed": 1.5}'), "seed expects"),
            # Config keys the subcommand does not read, and settings out of their choices.
            (("simulate", "--config", '{"scenario": "parity", "trails": 10}'), "'trails'"),
            (("verify", "--config", '{"fmt": "csv", "trials": 100}'), "'fmt'"),
            (("verify", "--config", '{"scenario": "parity", "trials": 100}'), "'scenario'"),
            (("simulate", "--config", '{"scenario": "parity", "format": "xml"}'), "unknown format"),
            (("simulate", "--config", '{"scenario": "parity", "params": [1]}'), "params expects"),
            (("simulate", "--config", '{"scenario": ["parity"]}'), "scenario expects a string"),
            (("simulate", "--config", '{"scenario": "parity", "trials": 10, "out": 2}'), "out expects"),
            # Parameters nobody reads: no lower-case aliases of K and D.
            (("bound", "--n", "10", "--param", "d=8"), "bound needs --param D"),
            (("bound", "--n", "10", "--param", "D=8", "--param", "p=2/3"), "reads only --param D"),
            (("bound", "--scenario", "geometric_tail", "--param", "k=6", "--n", "10"), "'k'"),
            (("simulate", "--scenario", "geometric_tail", "--param", "k=6", "--n", "2"), "'k'"),
            # A tail deep enough that e^(K/2) overflows a float.
            (("bound", "--scenario", "geometric_tail", "--param", "K=1500", "--n", "10"),
             "tail depth must be at most 1419"),
            # A committee size that is not an integer.
            (("simulate", "--scenario", "senate", "--param", "senate_size=9/2", "--n", "6",
              "--protocol", "network"), "committee size must be a positive integer"),
            (("simulate", "--scenario", "senate", "--param", "senate_size=4.0", "--n", "6",
              "--protocol", "public-action"), "committee size must be a positive integer"),
            (("simulate", "--scenario", "senate", "--param", "senate_size=9/2", "--n", "6"),
             "committee size must be a positive integer"),
            # Numbers that are not finite.
            (("simulate", "--scenario", "iid_binary", "--param", "p=inf", "--n", "3", "--trials",
              "5"), "iid_binary: cannot interpret inf"),
            (("simulate", "--scenario", "iid_binary", "--param", "p=-inf", "--n", "3", "--trials",
              "5"), "iid_binary: cannot interpret -inf"),
            (("simulate", "--scenario", "geometric_tail", "--param", "ratio=inf", "--n", "3",
              "--trials", "5"), "geometric_tail: cannot interpret inf"),
            (("simulate", "--config", '{"scenario": "iid_binary", "params": {"p": Infinity}}'),
             "iid_binary: cannot interpret inf"),
            (("bound", "--n", "10", "--param", "D=inf"), "D must be positive and finite"),
            (("bound", "--config", '{"n": [10], "params": {"D": Infinity}}'),
             "D must be positive and finite"),
            # Threshold lists from a config file, each refused before any bound runs.
            (("bound", "--scenario", "geometric_tail", "--n", "10", "--config",
              '{"eps_grid": [0.1, 1.5]}'), "--eps-grid"),
            (("bound", "--scenario", "geometric_tail", "--n", "10", "--config",
              '{"eps_grid": [0.1, NaN]}'), "--eps-grid"),
            (("bound", "--scenario", "geometric_tail", "--n", "10", "--config",
              '{"eps_grid": [true]}'), "--eps-grid"),
            (("sweep", "--config",
              '{"scenario": "geometric_tail", "n": [10], "trials": 10, "eps_grid": []}'),
             "--eps-grid"),
            # Booleans where a number is read: JSON ``true`` was taken as 1.
            (("simulate", "--config", '{"scenario": "senate", "params": {"senate_size": true}, '
              '"n": 5, "protocol": "public-action"}'), "committee size must be a positive integer"),
            (("simulate", "--n", "3", "--config",
              '{"scenario": "geometric_tail", "params": {"K": true}}'),
             "tail depth must be an integer of at least 1, got True"),
            (("bound", "--n", "10", "--config", '{"params": {"D": true}}'),
             "D expects a number, got True"),
            (("bound", "--n", "10", "--config", '{"params": {"D": "abc"}}'),
             "D expects a number, got 'abc'"),
            (("bound", "--scenario", "uncorrelated_tight", "--n", "4"),
             "uncorrelated_tight(4) has no informative marginal model"),
            (("bound", "--n", "10", "--param", "p"), "--param expects key=value, got 'p'"),
            # One point past the cap (2**16); with no cap 10**6 points took 1.6 s and 130 MB.
            (("bound", "--scenario", "geometric_tail", "--n", "10", "--eps-grid", "1e-6:0.5:65537"),
             "grid needs at most 65536 points"),
        ],
    )
    def test_unparseable_input_exits_1(self, argv, message, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        if "--config" in argv and argv[-1] != "missing.json":
            (tmp_path / "config.json").write_text(argv[-1])
            argv = argv[:-1] + ("config.json",)
        assert run_cli(*argv) == 1
        assert message in capsys.readouterr().err

    def test_weak_committee_is_refused_in_budget_and_past_it(self, capsys):
        """Public-action on a committee nobody defers to exits 1 with one
        message, whether its trials are counted or drawn analytically."""
        errors = []
        for n in ("5", "30"):
            code = run_cli(
                "simulate", "--scenario", "senate", "--param", "senate_size=1", "--n", n,
                "--protocol", "public-action", "--trials", "2000", "--seed", "3",
            )
            assert code == 1
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert "committee too weak" in errors[0]

    def test_verification_failures_exit_2(self, monkeypatch):
        from agreelab import cli
        from agreelab.harness import FAIL

        failed = Check("forced", FAIL, observed=1.0, bound=0.0, tolerance=0.0, margin=-1.0)
        monkeypatch.setattr(
            cli, "default_verification_suite", lambda **kw: VerificationReport(checks=[failed])
        )
        assert run_cli("verify", "--format", "csv") == 2

    @pytest.mark.parametrize("error", [KeyError("internal"), ValueError("internal")])
    def test_internal_errors_propagate(self, error, monkeypatch):
        from agreelab import cli

        def broken(*args, **kwargs):
            raise error

        monkeypatch.setattr(cli, "run_monte_carlo", broken)
        with pytest.raises(type(error)):
            run_cli("simulate", "--scenario", "iid_binary", "--param", "p=2/3", "--n", "3")

    def test_internal_errors_exit_4_at_the_entry_point(self, monkeypatch, capsys):
        from agreelab import cli

        def broken(*args, **kwargs):
            raise KeyError("internal")

        monkeypatch.setattr(cli, "run_monte_carlo", broken)
        with pytest.raises(SystemExit) as exit_:
            cli.entry(["simulate", "--scenario", "iid_binary", "--param", "p=2/3", "--n", "3"])
        assert exit_.value.code == 4
        assert "KeyError: 'internal'" in capsys.readouterr().err

    def test_unequal_fixed_point_exits_4(self, monkeypatch, capsys):
        """A fixed point that leaves the agents disagreeing is an engine bug,
        not a usage error.  Public-action's count kernel is made to price
        every round's sets at their first masses, as if nothing were
        announced, so the agents keep acting on their own signals."""
        from agreelab import cli

        def first_masses(log_masses):
            first = []

            def priced(start, stop):
                if not first:
                    first.append(log_masses(start, stop))
                return first[0]

            return priced

        monkeypatch.setattr(dynamics, "functools", SimpleNamespace(cache=first_masses))
        with pytest.raises(SystemExit) as exit_:
            cli.entry(["simulate", "--scenario", "iid_binary", "--param", "p=2/3", "--n", "3",
                       "--protocol", "public-action"])
        assert exit_.value.code == 4
        assert "left actions unequal at counts" in capsys.readouterr().err
