//! Tests of the benchmark as a whole: determinism, the gate, the
//! command line, and a smoke run of every workload in both modes.

use super::*;
use mix::prelude::Counter;

fn counted(w: Workload, seed: u64, scripts: u64) -> (Digest, Counters, Outcome) {
    let epoch = Instant::now();
    let sys = System::build(w);
    let before = sys.backend_counters();
    let out = run_local(
        &sys.mediator,
        &sys,
        scripts_phase(seed, scripts, epoch),
        Local::Session,
    );
    let counters = Counters::since(&before, &sys.backend_counters(), &out.session);
    (out.digest, counters, out)
}

#[test]
fn same_seed_same_commands_and_counts_other_seed_other_commands() {
    for (w, scripts) in [
        (Workload::BrowseInproc, 12),
        (Workload::InplaceInproc, 3),
        (Workload::DrainInproc, 1),
        (Workload::ServedBulk, 2),
    ] {
        let (d1, c1, o1) = counted(w, 5, scripts);
        let (d2, c2, o2) = counted(w, 5, scripts);
        assert_eq!(o1.failed, 0, "{}: {:?}", w.name(), o1.first_failure);
        assert_eq!(d1, d2, "{}", w.name());
        assert_eq!((o1.cmds, o1.nodes), (o2.cmds, o2.nodes));
        for c in [
            Counter::TuplesShipped,
            Counter::BlocksShipped,
            Counter::NodesBuilt,
            Counter::SqlQueries,
        ] {
            assert_eq!(c1.get(c), c2.get(c), "{} {c:?}", w.name());
            assert!(c1.get(c) > 0, "{} {c:?} never counted", w.name());
        }
        // Another seed: another sequence (of texts, or — handles being
        // left out of the command digest — of the nodes asked about,
        // which the transcript shows), every answer still agreeing
        // with the oracle.
        let (d3, _, o3) = counted(w, 6, scripts);
        assert_eq!(o3.failed, 0, "{}: {:?}", w.name(), o3.first_failure);
        assert_ne!(d1, d3, "{}", w.name());
    }
}

#[test]
fn a_broken_golden_digest_fails_the_gate() {
    let epoch = Instant::now();
    let sys = System::build(Workload::BrowseInproc);
    let mut d = gate(&sys, epoch).unwrap().0.digest;
    check_golden(Workload::BrowseInproc, &d).unwrap();
    d.replies.0 ^= 1;
    let e = check_golden(Workload::BrowseInproc, &d).unwrap_err();
    assert!(e.contains("golden digest mismatch"), "{e}");
}

#[test]
fn wrong_answers_are_counted_as_failures() {
    // An oracle built over other data contradicts every id the walk
    // reads, and the commands that read them count as failed.
    let epoch = Instant::now();
    let mut sys = System::build(Workload::BrowseInproc);
    let other = mix_repro::datagen::customers_orders(50, 2, 99).0;
    sys.oracle = workload::Oracle::new(&other).into();
    let out = run_local(
        &sys.mediator,
        &sys,
        scripts_phase(3, 4, epoch),
        Local::Session,
    );
    assert!(out.failed > 0);
    assert!(no_failures("phase", &out)
        .unwrap_err()
        .contains("the tables say"));
}

#[test]
fn the_command_line_takes_the_drivers_arguments() {
    let args = |s: &str| parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
    let a = args("--workload served_nav --seed 9 --seconds 3 --trace 0").unwrap();
    assert_eq!(a.workload, Some(Workload::ServedNav));
    assert_eq!((a.seed, a.seconds, a.trace), (9, 3.0, false));
    assert!(args("--workload served_nav --trace 1").unwrap().trace);
    assert!(args("--trace --workload served_nav").unwrap().trace);
    assert_eq!(
        args("--workload drain_inproc --repeat 4").unwrap().repeat,
        4
    );
    assert!(args("--workload nope").is_err());
    assert!(args("--seconds 0").is_err());
    assert!(args("--frobnicate").is_err());
}

#[test]
fn reports_carry_every_declared_metric_and_the_contract_shape() {
    let w = Workload::BrowseInproc;
    let e2e = run_one(w, 2, false, Plan::smoke()).unwrap();
    let names: Vec<&str> = e2e.values.iter().map(|(m, _, _)| m.name).collect();
    assert_eq!(names, END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>());
    assert!(
        e2e.values.iter().all(|(_, v, _)| *v > 0.0),
        "{:?}",
        e2e.values
    );
    let json = e2e.json();
    assert!(json.starts_with("{\"correct\": true, \"attempted\": "));
    assert!(json.contains("\"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": "));
    assert!(json.contains("\"unit\": \"1/s\"}") && !json.contains('\n'));

    let layers = run_one(w, 2, true, Plan::smoke()).unwrap();
    let names: Vec<&str> = layers.values.iter().map(|(m, _, _)| m.name).collect();
    assert_eq!(names, PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>());
    assert!(metrics::missing_layers(names.iter().copied()).is_empty());
    let value = |n: &str| {
        layers
            .values
            .iter()
            .find(|(m, _, _)| m.name == n)
            .unwrap()
            .1
    };
    // The compile stages did run, the server did not.
    assert!(value("xquery.parse_us") > 0.0 && value("rewrite.rules_fired") > 0.0);
    assert!(value("engine.first_child_us") > 0.0 && value("relational.exec_open_us") > 0.0);
    assert_eq!(value("serve.null_rtt_us"), 0.0);
    assert_eq!(value("proto.bytes_per_cmd"), 0.0);
}

#[test]
fn smoke_runs_all_six_workloads_and_writes_their_traces() {
    smoke().unwrap();
    for w in Workload::ALL {
        let text = std::fs::read_to_string(trace_path(w)).unwrap();
        let first = text.lines().next().expect("at least one span");
        assert!(first.starts_with("{\"id\":0,\"parent\":null,\"script_id\":0,\"name\":\""));
        assert!(text.contains("\"name\":\"xquery.parse\""), "{}", w.name());
        assert_eq!(
            text.contains("\"name\":\"proto.encode.small\""),
            w.served(),
            "{}",
            w.name()
        );
    }
}
