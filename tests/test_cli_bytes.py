"""Exact bytes of the command line: a sha256 ledger of one call per command
on bundled fixtures, and the help of the options that commands share."""

import hashlib

import click
import pytest
from click.testing import CliRunner

from polytreelab.cli import main
from polytreelab.cnf import bundled_formulas, write_dimacs_file
from polytreelab.distribution import write_distribution_json
from polytreelab.generators import parity_fixture
from polytreelab.structure import write_structure_json

# (arguments, exit code, sha256 of stdout, {artifact: sha256 of its bytes}).
# The calls run in this order in one directory: later calls read the
# distribution that `gen random` writes.
LEDGER = [
    (
        ["gen", "random", "--n", "5", "--seed", "7", "--out", "random5.json"],
        0,
        "a173dc8aacb5f847476ffca932cba3515bc02db52e8516e371924d58a57530ed",
        {"random5.json": "88f9e85aa1ee7d45e7cd47370a73ac348809834f83bb5851f5062913b47177eb"},
    ),
    (
        ["learn-branching", "--dist", "parity3.json", "--out", "branching.json"],
        0,
        "c0027d21120e89a0dfd27a4d3bce99fb2055f65be646a411a246a50ab69ba339",
        {"branching.json": "02fa4f5922f715a61f5af2f6c2a17ae8ee47124f0cc862f132607122f0bfc6c0"},
    ),
    (
        [
            "exact-polytree",
            "--dist", "random5.json",
            "--k", "2",
            "--out", "exact.dot",
            "--format", "dot",
        ],
        0,
        "c2eced8b490cf321c4ad5aacb32e3b32014975345040b65935215e3444741f95",
        {"exact.dot": "3ec58d1705806e32b577cbc584d442d78f05c370bc2b6f69972c16a4a75d63c1"},
    ),
    (
        ["heuristic-polytree", "--dist", "random5.json", "--k", "2"],
        0,
        "80a7a8cc7b0e627e3960e835b7ba102b1593cae358a6de2c5b62aeb0059a8bae",
        {},
    ),
    # Local search: parity3 stalls on the empty branching at every k; the
    # random 2-polytree takes moves, and --budget 1 stops after the first.
    (
        ["heuristic-polytree", "--dist", "parity3.json", "--k", "1"],
        0,
        "6ec6d89509a8a975551c3e47b1d01211684ae3f4748e285ebb1f56f48fae2c81",
        {},
    ),
    (
        ["heuristic-polytree", "--dist", "parity3.json", "--k", "2"],
        0,
        "4a87402bcc723d1e9b195cf6450d9cd31d859719059eb4cb6b04d0fa9d9c381b",
        {},
    ),
    (
        ["heuristic-polytree", "--dist", "parity3.json", "--k", "3"],
        0,
        "59457e0a4305a5090feb2142fcb76525ec27b23bcbd7ecdca523547514fb1a98",
        {},
    ),
    (
        ["gen", "random", "--n", "6", "--k", "2", "--seed", "3", "--out", "random6.json"],
        0,
        "7ce1f375b649e45adcd10de6d2292d6154b8e43a19351477b55f9217ef8c1ace",
        {"random6.json": "4998dcb57da1c18643ffa6c16f8d790c634dc60210e0c3bc4b4bb61a3cb50be9"},
    ),
    (
        ["heuristic-polytree", "--dist", "random6.json", "--k", "2"],
        0,
        "702f9d49c49b7401196489d69a29b5ba72fbdfe530266fa0edf07ad2e65251f2",
        {},
    ),
    (
        ["heuristic-polytree", "--dist", "random6.json", "--k", "2", "--budget", "1"],
        0,
        "c3c0cd81b9fe7ccd1099fc7d139c2252a6e4d250910490d54250026c0ac23e92",
        {},
    ),
    (
        ["score", "--dist", "parity3.json", "--structure", "parity3_structure.json"],
        0,
        "0083ee2eb24322e2a8f38e48c9eff6edcdaece50c92bbbdb4bc90b244446f761",
        {},
    ),
    (
        ["ratio", "--dist", "parity3.json"],
        0,
        "5a045bfce4c77dce0377a2fb4fff3ac27bbc695c3f60e20d2ea942cd4d559fd8",
        {},
    ),
    (
        ["verify-bounds", "--dist", "random5.json", "--k", "2"],
        0,
        "7a806bf302d9e67c76e502e4610dd34c222f7294c1f1a605615dedd3142cb7ba",
        {},
    ),
    # Seven nodes, the exact search's cap: the bound prunes most forests.
    (
        ["gen", "random", "--n", "7", "--k", "2", "--seed", "11", "--out", "random7.json"],
        0,
        "f201d6e7b2b8065469c80b3cd893425ddb2708caadd2c96d9bad348a3b3cee95",
        {"random7.json": "e2ce179ef76a3131403172ec0fb08d0d5097065e3e4a4243bdb2d4f05aa1ee06"},
    ),
    (
        ["exact-polytree", "--dist", "random7.json", "--k", "2"],
        0,
        "a66451f2d1a8bb01d2fe90a221e28d4c1d5e0d9d69525c41334d9cf581ef30e9",
        {},
    ),
    (
        ["exact-polytree", "--dist", "random7.json"],
        0,
        "c6ade433f6c14d54d6256fdb3c2da16d14aface17fc656fcfa57cf5eb5afd050",
        {},
    ),
    # k = 0: only the empty structure is within the bound.
    (
        ["exact-polytree", "--dist", "random7.json", "--k", "0"],
        0,
        "4784047dbc15736f2fb9093df1492e7170bf4ad8170bba55dcafbb2e3f658506",
        {},
    ),
    (
        ["gen", "xor-tree", "--depth", "2", "--eps", "0.3"],
        0,
        "edf686d6906c2e06fb97b31a53571137e07f23608a202032b5d7d87d9490acee",
        {},
    ),
    (
        ["gen", "example", "--name", "parity2", "--format", "csv", "--out", "parity2.csv"],
        0,
        "1397fa1d80bc21e425eeeb5d4b84df33ddf0920a538213e76397929ecc02c86c",
        {"parity2.csv": "8474706e06143ae07da24b9ffb591240b3c2c4f6d6f3934f3eca36bc0d2c8fdd"},
    ),
    (
        ["heuristic-polytree", "--data", "parity2.csv", "--k", "2"],
        0,
        "2d4c1f77e485f3eea0a202a7eaa388deb3e6df515791d0a2e1ec098914171f63",
        {},
    ),
    (
        ["learn-branching", "--data", "parity2.csv"],
        0,
        "dadd4ce68f311fd952f3f6bef2a5af21900c5565051114415736eee5907daf6f",
        {},
    ),
    (
        ["gen", "cnf", "single_variable.cnf", "--samples", "20", "--seed", "4"],
        1,
        "18f3922a91f7b4f3fbc97a1cfb9f96b70fe75d381a2b0db616a988ef84dddb55",
        {},
    ),
    (
        [
            "gen", "cnf", "two_variable.cnf",
            "--blockers",
            "--samples", "200",
            "--seed", "4",
            "--out", "two.csv",
        ],
        0,
        "55e8795b352baf010afe28511d550ed70ec8145be5efbe240aa48332642e6ed4",
        {"two.csv": "bbab5fca0068ee14e1dc0d245582d3f488a0d3056d6142aa31499d13a2245d0b"},
    ),
    (
        ["verify-gadget", "single_variable.cnf", "--blockers"],
        0,
        "aaf3d6cdcdb53b08b963b40ce3f4c963d91f29e94786980293c666a0edd44340",
        {},
    ),
    (
        ["verify-gadget", "two_variable.cnf", "--assignment", "0,1"],
        0,
        "6fa7b089f05f352a96343cf678dee0b19ae1d46b9449bf70f219c47e0d6b7c19",
        {},
    ),
    (
        [
            "gen", "cnf", "six_variable.cnf",
            "--blockers",
            "--samples", "50",
            "--seed", "2",
            "--out", "six.csv",
            "--arities-out", "six.json",
        ],
        0,
        "d7667869f4b74e7c354a9b939eaa81fa43078e167ba9e8ad7dd74ce423a55f19",
        {
            "six.csv": "eb53e8c2dfbfa04be109528cf8bc36251240135ff1154efcea81743081d1b368",
            "six.json": "f2fa270c7b5229f30a6462aa40b18c4006d96cab058997627ef46d2180881449",
        },
    ),
    # Two-digit cells, and a row count that is not a multiple of the
    # writer's block.
    (
        [
            "gen", "cnf", "six_variable.cnf",
            "--blockers",
            "--samples", "50000",
            "--seed", "9",
            "--out", "six50k.csv",
        ],
        0,
        "63a6e1a275390af91d1166eb88f11a2b25d0fc134244fd03ffa10a937601bfa7",
        {"six50k.csv": "f1bbf5dcb2fd52bc6f507bf5a7a08c7065053eab30ec92e6e1d696f6f5d1ad16"},
    ),
    # Exactly one block of the sampler and the writer; then two full blocks
    # and one row, with three-digit cells.
    (
        [
            "gen", "cnf", "two_variable.cnf",
            "--samples", "4096",
            "--seed", "5",
            "--out", "two4096.csv",
        ],
        0,
        "ef95c016be01d0ee8ba5af9b0766525ec22c00ff9d5f3e8a846eb178c74c75f0",
        {"two4096.csv": "a11c7a9d3c2c920235c785e1ca99a1817b4f47c803a2c87d391e6f241d2d25d6"},
    ),
    (
        [
            "gen", "cnf", "six_variable.cnf",
            "--blockers",
            "--blocker-copies", "6",
            "--samples", "8193",
            "--seed", "3",
            "--out", "six8193.csv",
        ],
        0,
        "c335d89b231fe45272b2e1e1d1fc101720736b3f257d19a4f655dbc3928a4766",
        {"six8193.csv": "a08bea0ee8f6aa4eb4665fe37a6418ba7c809a3ccea5b4e2a05c1e52e074fc61"},
    ),
]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_every_command_prints_its_ledger_bytes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name in ("parity2", "parity3"):
        dist, generating = parity_fixture(name)
        write_distribution_json(dist, f"{name}.json")
        write_structure_json(generating, list(dist.names), f"{name}_structure.json")
    for name, formula in bundled_formulas():
        write_dimacs_file(formula, tmp_path / f"{name}.cnf")
    for args, code, stdout_sha, artifacts in LEDGER:
        result = CliRunner().invoke(main, args, catch_exceptions=False)
        assert (result.exit_code, _sha256(result.output.encode())) == (code, stdout_sha), args
        for path, sha in artifacts.items():
            assert _sha256((tmp_path / path).read_bytes()) == sha, path


def test_the_ledger_calls_every_command():
    called = {tuple(args[:2]) if args[0] == "gen" else (args[0],) for args, *_ in LEDGER}
    commands = {(name,) for name in main.commands if name != "gen"}
    commands |= {("gen", name) for name in main.commands["gen"].commands}
    assert called == commands


# Options that several commands share through one option group.
SHARED_OPTIONS = {
    "--k": [["exact-polytree"], ["ratio"], ["verify-bounds"]],
    "--exact-cap": [["exact-polytree"], ["ratio"], ["verify-bounds"]],
    "--jobs": [["exact-polytree"], ["ratio"], ["verify-bounds"]],
    "--out": [["learn-branching"], ["exact-polytree"], ["heuristic-polytree"]],
    "--blockers": [["gen", "cnf"], ["verify-gadget"]],
    "--max-states": [
        ["learn-branching"],
        ["exact-polytree"],
        ["heuristic-polytree"],
        ["score"],
        ["ratio"],
        ["verify-bounds"],
        ["gen", "xor-tree"],
        ["gen", "random"],
    ],
}


def _help_record(path: list[str], option: str) -> tuple[str, str]:
    """The (option, help) pair that ``--help`` of the command prints."""
    command = main
    for name in path:
        command = command.commands[name]
    ctx = click.Context(command, info_name=path[-1])
    (param,) = [p for p in command.params if option in p.opts]
    return param.get_help_record(ctx)


@pytest.mark.parametrize("option", sorted(SHARED_OPTIONS))
def test_a_shared_option_has_one_help_line(option):
    records = {tuple(path): _help_record(path, option) for path in SHARED_OPTIONS[option]}
    assert len(set(records.values())) == 1, records
    (_, help_text), *_ = records.values()
    assert help_text
