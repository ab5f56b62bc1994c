//! Reader threads are reaped. Alone in its own test binary because it
//! counts the threads of the whole process, which other tests' servers
//! and clients would change under it.
#![cfg(target_os = "linux")]

use mix_qdom::Mediator;
use mix_serve::{Server, ServerConfig, WireClient};
use mix_wrapper::fig2_catalog;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn os_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    let line = status.lines().find(|l| l.starts_with("Threads:")).unwrap();
    line["Threads:".len()..].trim().parse().unwrap()
}

#[test]
fn closed_connections_leave_no_thread_behind() {
    let factory = Arc::new(|| Mediator::new(fig2_catalog().0));
    let mut server = Server::start("127.0.0.1:0", ServerConfig::default(), factory).unwrap();
    let before = os_threads();
    for _ in 0..32 {
        let mut client = WireClient::connect(server.addr()).unwrap();
        assert!(!client.stats().unwrap().is_empty());
        client.close().unwrap();
    }
    // The client's `close` returns on the server's Bye, a moment before
    // that connection's reader has left its `read`.
    let deadline = Instant::now() + Duration::from_secs(5);
    while os_threads() != before && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(
        os_threads(),
        before,
        "reader threads outlived their connections"
    );
    server.shutdown();
}
