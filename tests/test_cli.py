"""Command-line tools."""

import json

import pytest

from repro.cli import (
    cmd_asm,
    cmd_certify,
    cmd_disasm,
    cmd_explain_fault,
    cmd_lint,
    cmd_metrics,
    cmd_opt,
    cmd_profile,
    cmd_rewrite,
    cmd_run,
    cmd_trace,
    cmd_verify,
    main,
)

DEMO = """
work:
    ldi r24, 0
    ldi r22, 5
loop:
    add r24, r22
    dec r22
    brne loop
    ret
store_mod:
    movw r26, r24
    st X, r22
    ret
"""


@pytest.fixture
def demo_source(tmp_path):
    path = tmp_path / "demo.s"
    path.write_text(DEMO)
    return str(path)


def test_asm_to_image_and_listing(demo_source, tmp_path, capsys):
    out = tmp_path / "demo.hex"
    assert cmd_asm([demo_source, "-o", str(out), "--listing"]) == 0
    captured = capsys.readouterr()
    assert "work:" in captured.out
    assert "bytes of code" in captured.err
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("00000:")


def test_asm_reports_errors(tmp_path, capsys):
    bad = tmp_path / "bad.s"
    bad.write_text("    frob r1\n")
    assert cmd_asm([str(bad)]) == 1
    assert "error" in capsys.readouterr().err


def test_disasm_roundtrip(demo_source, tmp_path, capsys):
    out = tmp_path / "demo.hex"
    cmd_asm([demo_source, "-o", str(out)])
    capsys.readouterr()
    assert cmd_disasm([str(out)]) == 0
    assert "ldi r24, 0" in capsys.readouterr().out


def test_run_entry(demo_source, capsys):
    assert cmd_run([demo_source, "--entry", "work"]) == 0
    assert "r24:25 = 0x000f" in capsys.readouterr().out


def test_run_with_dump(demo_source, capsys):
    assert cmd_run([demo_source, "--entry", "work",
                    "--dump", "0x100:4"]) == 0
    assert "0x0100: 00 00 00 00" in capsys.readouterr().out


def test_rewrite_and_verify_pipeline(demo_source, tmp_path, capsys):
    out = tmp_path / "mod.hex"
    assert cmd_rewrite([demo_source, "--export", "store_mod",
                        "-o", str(out)]) == 0
    err = capsys.readouterr().err
    assert "stores=1" in err
    assert "export store_mod" in err
    assert cmd_verify([str(out)]) == 0
    assert "ACCEPTED" in capsys.readouterr().out


def test_verify_rejects_raw_module(demo_source, capsys):
    assert cmd_verify([demo_source]) == 1
    assert "REJECTED" in capsys.readouterr().out


def test_rewrite_rejects_unsandboxable(tmp_path, capsys):
    bad = tmp_path / "bad.s"
    bad.write_text("f:\n    ijmp\n    ret\n")
    assert cmd_rewrite([str(bad), "--export", "f"]) == 1
    assert "rewrite error" in capsys.readouterr().err


FAULTING = """
poke:
    ldi r26, 0x00
    ldi r27, 0x04
    ldi r18, 1
    st X, r18
    ret
"""


@pytest.fixture
def fault_source(tmp_path):
    path = tmp_path / "poke.s"
    path.write_text(FAULTING)
    return str(path)


def test_run_umpu_protection_fault(fault_source, capsys):
    # domain 0 owns nothing: the store must fault under --umpu
    assert cmd_run([fault_source, "--entry", "poke", "--umpu",
                    "--domain", "0"]) == 2
    assert "protection fault" in capsys.readouterr().out
    # and pass on the stock core
    assert cmd_run([fault_source, "--entry", "poke"]) == 0


# ---------------------------------------------------------------------
# observability subcommands (golden exit codes + output shapes)
# ---------------------------------------------------------------------
def test_trace_cli_exports_chrome_json(demo_source, tmp_path, capsys):
    out = tmp_path / "trace.json"
    assert cmd_trace([demo_source, "--entry", "work",
                      "-o", str(out)]) == 0
    captured = capsys.readouterr()
    assert "events" in captured.err
    doc = json.loads(out.read_text())
    assert doc["traceEvents"], "exported trace must have events"


def test_profile_cli_renders_attribution(demo_source, capsys):
    assert cmd_profile([demo_source, "--entry", "work"]) == 0
    captured = capsys.readouterr()
    assert "TOTAL" in captured.out
    assert "attribution balanced" in captured.err


def test_explain_fault_renders_panic_dump(fault_source, capsys):
    assert cmd_explain_fault([fault_source, "--entry", "poke",
                              "--umpu", "--domain", "0"]) == 2
    out = capsys.readouterr().out
    assert "PROTECTION FAULT" in out
    assert "faulting address" in out
    assert "last instructions" in out


def test_explain_fault_json_shape(fault_source, tmp_path, capsys):
    out_file = tmp_path / "report.json"
    assert cmd_explain_fault([fault_source, "--entry", "poke",
                              "--umpu", "--domain", "0", "--json",
                              "-o", str(out_file)]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == 1
    assert doc["code"] == "memmap"
    assert doc["fault_type"] == "MemMapFault"
    assert doc["instr_window"]
    assert doc["call_stack"]
    assert json.loads(out_file.read_text()) == doc


def test_explain_fault_without_fault_exits_zero(demo_source, capsys):
    assert cmd_explain_fault([demo_source, "--entry", "work"]) == 0
    assert "no protection fault" in capsys.readouterr().out


def test_metrics_cli_text_and_json(demo_source, tmp_path, capsys):
    assert cmd_metrics([demo_source, "--entry", "work"]) == 0
    captured = capsys.readouterr()
    assert "cycles" in captured.out
    assert "metrics" in captured.err

    out_file = tmp_path / "metrics.json"
    assert cmd_metrics([demo_source, "--entry", "work", "--json",
                        "-o", str(out_file)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == 1
    assert {"counters", "gauges", "histograms"} <= set(doc)
    assert json.loads(out_file.read_text()) == doc


def test_metrics_cli_faulting_run_exits_two(fault_source, capsys):
    assert cmd_metrics([fault_source, "--entry", "poke", "--umpu",
                        "--domain", "0"]) == 2
    captured = capsys.readouterr()
    assert "protection fault" in captured.err
    # the fault itself lands in the registry output
    assert "protection_faults" in captured.out


# ---------------------------------------------------------------------
# harbor-lint: the whole-image static analyzer
# ---------------------------------------------------------------------
CLEAN_MODULE = """
sample:
    ldi r26, 0x40
    ldi r27, 0x06
    ldi r24, 0x2A
    st X+, r24
    ret
report:
    call KERNEL_NOOP
    ret
"""

MISCOMPILED = """
broken:
    ldi r26, 0x00
    ldi r27, 0x0C
    ldi r24, 0x55
    st X+, r24
    call 0x1000
    ret
"""


@pytest.fixture
def clean_module(tmp_path):
    path = tmp_path / "clean.s"
    path.write_text(CLEAN_MODULE)
    return str(path)


@pytest.fixture
def miscompiled(tmp_path):
    path = tmp_path / "miscompiled.s"
    path.write_text(MISCOMPILED)
    return str(path)


def test_lint_clean_module_exits_zero(clean_module, capsys):
    assert cmd_lint([clean_module]) == 0
    out = capsys.readouterr().out
    assert "no findings" in out
    assert "safe-stack occupancy bound" in out
    assert "overhead clean" in out


def test_lint_miscompiled_unchecked_reports_rule_codes(miscompiled,
                                                      capsys):
    assert cmd_lint(["--unchecked", miscompiled]) == 1
    out = capsys.readouterr().out
    for code in ("HL001", "HL002", "HL003"):
        assert code in out
    assert "3 finding(s): 3 error" in out


def test_lint_loader_pipeline_fixes_stores_but_flags_recursion(
        miscompiled, capsys):
    # without --unchecked the module goes through the rewriter: the raw
    # store and the jump-table call are fixed up, but the rewritten
    # self-domain call through the jump table is statically unbounded
    # recursion — the lint still fails, for the deeper reason
    assert cmd_lint([miscompiled]) == 1
    out = capsys.readouterr().out
    assert "HL009" in out
    assert "unbounded" in out


def test_lint_loader_rejects_unsandboxable(tmp_path, capsys):
    bad = tmp_path / "bad.s"
    bad.write_text("f:\n    ijmp\n    ret\n")
    assert cmd_lint([str(bad)]) == 1
    assert "error" in capsys.readouterr().err


def test_lint_json_report(miscompiled, tmp_path, capsys):
    out_file = tmp_path / "lint.json"
    assert cmd_lint(["--unchecked", miscompiled, "--format", "json",
                     "-o", str(out_file)]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == 1
    assert doc["counts"]["error"] == 3
    assert "analysis" in doc
    assert json.loads(out_file.read_text()) == doc


def test_lint_sarif_report(miscompiled, tmp_path, capsys):
    out_file = tmp_path / "lint.sarif"
    assert cmd_lint(["--unchecked", miscompiled, "--format", "sarif",
                     "-o", str(out_file)]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["version"] == "2.1.0"
    assert doc["runs"][0]["tool"]["driver"]["name"] == "harbor-lint"
    assert len(doc["runs"][0]["results"]) == 3
    assert json.loads(out_file.read_text()) == doc


def test_lint_umpu_mode(clean_module, capsys):
    assert cmd_lint(["--umpu", clean_module]) == 0
    assert "no findings" in capsys.readouterr().out


def test_main_multiplexer(demo_source, capsys):
    assert main(["run", demo_source, "--entry", "work"]) == 0
    capsys.readouterr()
    assert main(["metrics", demo_source, "--entry", "work"]) == 0
    capsys.readouterr()
    assert main([]) == 64
    assert main(["bogus"]) == 64


NOTED_MODULE = """
f:
    ret
    nop
"""

# ret-less so the raw (--unchecked) image has no HL003 to report: the
# only findings can come from the trailing data word
DATA_MODULE = """
entry:
    ldi r24, 1
spin:
    rjmp spin
.dw 0xFFFF
"""


def test_lint_fail_on_raises_severity_floor(tmp_path, capsys):
    path = tmp_path / "noted.s"
    path.write_text(NOTED_MODULE)
    # dead code is a note: clean by default, a failure under --fail-on
    assert cmd_lint([str(path)]) == 0
    assert "HL010" in capsys.readouterr().out
    assert cmd_lint(["--fail-on", "note", str(path)]) == 1
    assert cmd_lint(["--fail-on", "warning", str(path)]) == 0


def test_lint_missing_file_is_an_internal_error(capsys):
    assert cmd_lint(["/nonexistent/module.s"]) == 2
    assert "error" in capsys.readouterr().err


def test_lint_bad_data_span_spec_is_an_internal_error(tmp_path, capsys):
    path = tmp_path / "data.s"
    path.write_text(DATA_MODULE)
    assert cmd_lint(["--unchecked", str(path),
                     "--data-span", "data:nonsense"]) == 2
    assert "bad --data-span" in capsys.readouterr().err


def test_lint_data_span_excludes_data_words(tmp_path, capsys):
    path = tmp_path / "data.s"
    path.write_text(DATA_MODULE)
    # the trailing .dw 0xFFFF does not decode: HL011 without annotation
    assert cmd_lint(["--unchecked", str(path)]) == 1
    assert "HL011" in capsys.readouterr().out
    # annotated as data (module-relative offsets) the image lints clean
    assert cmd_lint(["--unchecked", str(path),
                     "--data-span", "data:4-6"]) == 0
    out = capsys.readouterr().out
    assert "HL011" not in out
    assert "no findings" in out


def test_opt_elides_and_writes_manifest(tmp_path, capsys):
    from repro.analysis.static.elision import ElisionManifest
    out = tmp_path / "logger.manifest.json"
    code = cmd_opt(["examples/modules/static_logger.s:"
                    "logger_fill,logger_set,logger_tally",
                    "--static-data", "256", "-o", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "elided" in text
    assert "no findings" in text
    manifest = ElisionManifest.load(str(out))
    assert manifest.elided_checks >= 2
    assert manifest.schema == 1


def test_opt_missing_file_is_an_internal_error(capsys):
    assert cmd_opt(["/nonexistent/module.s"]) == 2
    assert "error" in capsys.readouterr().err


def test_main_multiplexes_opt(tmp_path, capsys):
    out = tmp_path / "m.json"
    assert main(["opt", "examples/modules/static_logger.s:"
                 "logger_fill,logger_set,logger_tally",
                 "--static-data", "256", "-o", str(out)]) == 0
    assert out.exists()


# ---------------------------------------------------------------------
# harbor-lint --select / --ignore


def test_lint_select_narrows_report_and_gate(miscompiled, capsys):
    # all three errors report by default (exit 1)
    assert cmd_lint(["--unchecked", miscompiled]) == 1
    capsys.readouterr()
    # selecting one rule narrows both the report and the gate
    assert cmd_lint(["--unchecked", miscompiled,
                     "--select", "HL001"]) == 1
    out = capsys.readouterr().out
    assert "HL001" in out
    assert "HL002" not in out and "HL003" not in out
    assert "1 finding(s)" in out


def test_lint_select_accepts_slugs_and_commas(miscompiled, capsys):
    assert cmd_lint(["--unchecked", miscompiled,
                     "--select", "unchecked-store,HL002"]) == 1
    out = capsys.readouterr().out
    assert "HL001" in out and "HL002" in out
    assert "HL003" not in out


def test_lint_ignore_drops_rules_from_gate(miscompiled, capsys):
    # ignoring every firing rule flips the exit code to 0
    assert cmd_lint(["--unchecked", miscompiled,
                     "--ignore", "HL001,HL002",
                     "--ignore", "missing-restore-ret"]) == 0
    assert "no findings" in capsys.readouterr().out


def test_lint_select_unknown_rule_is_an_internal_error(miscompiled,
                                                       capsys):
    assert cmd_lint(["--unchecked", miscompiled,
                     "--select", "HL999"]) == 2
    assert "unknown lint rule" in capsys.readouterr().err


def test_lint_select_preserves_fail_on_contract(tmp_path, capsys):
    path = tmp_path / "noted.s"
    path.write_text(NOTED_MODULE)
    # HL010 (note) selected: reported, but only --fail-on note gates
    assert cmd_lint([str(path), "--select", "HL010"]) == 0
    assert "HL010" in capsys.readouterr().out
    assert cmd_lint([str(path), "--select", "HL010",
                     "--fail-on", "note"]) == 1


# ---------------------------------------------------------------------
# harbor-certify


def test_certify_clean_module_exits_zero(capsys):
    assert cmd_certify(["examples/modules/clean_sensor.s"]) == 0
    out = capsys.readouterr().out
    assert "no findings" in out
    assert "clean_sensor: certified" in out
    assert "symbolically proved" in out


def test_certify_elided_module_exits_zero(capsys):
    assert cmd_certify(["examples/modules/static_logger.s:"
                        "logger_fill,logger_set,logger_tally",
                        "--elide", "--static-data", "256"]) == 0
    out = capsys.readouterr().out
    assert "static_logger: certified" in out
    assert "0 elided site(s)" not in out


def test_certify_unchecked_miscompiled_fails_hl017(miscompiled,
                                                   capsys):
    assert cmd_certify(["--unchecked", miscompiled]) == 1
    out = capsys.readouterr().out
    assert "HL017" in out
    assert "REJECTED" in out


def test_certify_json_report_and_artifact(tmp_path, capsys):
    out = tmp_path / "certify.json"
    report = tmp_path / "jit.json"
    assert cmd_certify(["examples/modules/clean_sensor.s",
                        "--format", "json", "-o", str(out),
                        "--report", str(report)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["analysis"]["certified"] is True
    assert doc["analysis"]["translatable_blocks"] > 0
    saved = json.loads(out.read_text())
    assert saved["analysis"]["certified"] is True
    jit = json.loads(report.read_text())
    assert jit["schema"] == 1
    assert jit["modules"][0]["module"] == "clean_sensor"
    assert jit["modules"][0]["ok"] is True


def test_certify_sarif_contains_hl017_rule(miscompiled, capsys):
    assert cmd_certify(["--unchecked", miscompiled,
                        "--format", "sarif"]) == 1
    doc = json.loads(capsys.readouterr().out)
    results = doc["runs"][0]["results"]
    assert any(r["ruleId"] == "HL017" for r in results)


def test_certify_missing_file_is_an_internal_error(capsys):
    assert cmd_certify(["/nonexistent/module.s"]) == 2
    assert "error" in capsys.readouterr().err


def test_main_multiplexes_certify(capsys):
    assert main(["certify", "examples/modules/clean_sensor.s"]) == 0
    assert "certified" in capsys.readouterr().out


# ---------------------------------------------------------------------
# bad input: one `error:` line, never a traceback
# ---------------------------------------------------------------------
BAD_IMAGE = "00000: 940c\nzz: 12\n"


@pytest.fixture
def bad_image(tmp_path):
    path = tmp_path / "bad.hex"
    path.write_text(BAD_IMAGE)
    return str(path)


@pytest.mark.parametrize("tool", [["lint"], ["lint", "--unchecked"],
                                  ["opt"], ["certify"],
                                  ["certify", "--unchecked"], ["race"],
                                  ["lint", "--umpu"]])
@pytest.mark.parametrize("case", ["malformed-hex", "unknown-name"])
def test_analysis_tools_bad_input_exits_two(tool, case, bad_image,
                                            capsys):
    spec = bad_image if case == "malformed-hex" \
        else "examples/modules/clean_sensor.s:nope"
    assert main(tool + [spec]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err
    if case == "malformed-hex":
        assert "bad.hex:2" in err
    else:
        assert "unknown entry label 'nope'" in err


def test_lint_umpu_off_origin_image_exits_two(tmp_path, capsys):
    # the UMPU loader places modules itself: an image assembled away
    # from origin 0 is bad input, not a loader crash
    image = tmp_path / "off.hex"
    source = tmp_path / "off.s"
    source.write_text(".org 0x100\n    nop\n    ret\n")
    assert main(["asm", str(source), "-o", str(image)]) == 0
    capsys.readouterr()
    assert main(["lint", "--umpu", str(image)]) == 2
    err = capsys.readouterr().err
    assert err == "error: off: assemble UMPU modules at origin 0 " \
                  "(they are placed by the loader)\n"


@pytest.mark.parametrize("tool", [["lint"], ["lint", "--umpu"], ["opt"],
                                  ["certify"]])
def test_more_modules_than_domains_exits_two(tool, tmp_path, capsys):
    # nine copies of one module: the eighth finds no free protection
    # domain, which is bad input, not a loader crash
    source = open("examples/modules/clean_sensor.s").read()
    specs = []
    for i in range(1, 10):
        path = tmp_path / "m{}.s".format(i)
        path.write_text(source)
        specs.append(str(path))
    assert main(tool + specs) == 2
    err = capsys.readouterr().err
    assert err == "error: m8: no free protection domain\n"


def _lint_report_cases():
    with open("tests/golden/lint_examples.json") as handle:
        return sorted(json.load(handle).items())


@pytest.mark.parametrize("args,golden", _lint_report_cases(),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_lint_reports_match_golden(args, golden, capsys):
    # text, JSON and SARIF reports on examples/modules, captured before
    # disassembly text became lazy: every rendered line is unchanged
    assert cmd_lint(args.split()) == golden["status"]
    captured = capsys.readouterr()
    assert captured.out == golden["stdout"]
    assert captured.err == golden["stderr"]


RUN_TOOLS = ("run", "trace", "profile", "replay", "explain-fault",
             "metrics")
BAD_INPUTS = (
    [(tool, case) for tool in ("asm", "disasm", "rewrite", "verify")
     + RUN_TOOLS for case in ("missing-file", "bad-source")]
    + [(tool, "malformed-hex") for tool in ("disasm", "rewrite", "verify")
       + RUN_TOOLS]
    + [(tool, "unknown-entry") for tool in RUN_TOOLS])


@pytest.mark.parametrize("tool,case", BAD_INPUTS)
def test_other_tools_bad_input_exits_one(tool, case, bad_image,
                                         demo_source, tmp_path,
                                         monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)     # harbor-trace writes trace.json
    bad_source = tmp_path / "foo.s"
    bad_source.write_text("    foo r1\n")
    argv = {"missing-file": [str(tmp_path / "missing.s")],
            "bad-source": [str(bad_source)],
            "malformed-hex": [bad_image],
            "unknown-entry": [demo_source, "--entry", "nope"]}[case]
    assert main([tool] + argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    assert not (tmp_path / "trace.json").exists()


def test_simulator_runtime_errors_still_raise(demo_source):
    # from reset the demo's `ret` pops past the stack: a simulator
    # error, not an input error, so it keeps its traceback
    from repro.sim.errors import SimError
    with pytest.raises(SimError):
        cmd_run([demo_source, "--max-cycles", "50"])


def test_tool_table_matches_console_scripts(capsys):
    import re
    from pathlib import Path

    import repro.cli as cli

    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    section = pyproject.read_text().split("[project.scripts]", 1)[1]
    section = section.split("\n[", 1)[0]
    scripts = dict(re.findall(r'^harbor-([\w-]+)\s*=\s*"([^"]+)"',
                              section, re.M))
    assert len(scripts) == 15
    for tool, target in scripts.items():
        assert target == "repro.cli:cmd_" + tool.replace("-", "_")
        assert callable(getattr(cli, target.split(":")[1]))
        assert re.search(r"\* ``harbor-{}[ `]".format(tool), cli.__doc__)
    assert main([]) == 64
    usage = capsys.readouterr().err
    served = re.search(r"\{([^}]*)\}", usage).group(1).split("|")
    assert sorted(served) == sorted(scripts)
    for tool in served:
        with pytest.raises(SystemExit) as exit_info:
            main([tool, "--help"])
        assert exit_info.value.code == 0
        assert capsys.readouterr().out.startswith(
            "usage: harbor-" + tool)
