//! A deadline budget too large to add to an `Instant` is input from
//! outside the process — the wire reader hands the decoded
//! `JobOptions` straight to the service — so it must be served as "no
//! deadline", never panic the connection's reader thread.

use std::sync::{mpsc, Arc};
use std::time::Duration;

use maya::EmulationSpec;
use maya_hw::ClusterSpec;
use maya_serve::{JobOptions, MayaService, Request};
use maya_torchlet::TrainingJob;
use maya_wire::{Backoff, WireClient, WireServer};

const TARGET: &str = "h100-1";

#[test]
fn unrepresentable_deadline_is_served_and_the_connection_survives() {
    let service = MayaService::builder()
        .target(TARGET, EmulationSpec::new(ClusterSpec::h100(1, 1)))
        .workers(1)
        .build()
        .expect("service builds");
    let server = WireServer::bind("127.0.0.1:0", Arc::new(service)).expect("bind");
    let addr = server.local_addr();

    // A reader thread that died leaves its client waiting for ever, so
    // the requests run beside the test and the test waits with a limit.
    let (done, verdict) = mpsc::channel();
    std::thread::spawn(move || {
        let client = WireClient::connect(addr).expect("connect");
        let request = Request::Predict {
            target: TARGET.into(),
            jobs: vec![TrainingJob::smoke()],
        };
        let forever = || JobOptions::new().with_deadline(Duration::MAX);
        let first = client
            .submit_with(&request, forever())
            .and_then(|job| job.wait());
        // Same connection: the reader that decoded that frame is alive.
        let second = client.call(&request);
        // The retry loop measures the same budget on the client's clock.
        let retried = client.submit_with_retry_opts(&request, forever(), Backoff::default());
        let _ = done.send([first, second, retried]);
    });
    let answers = verdict
        .recv_timeout(Duration::from_secs(30))
        .expect("a request on the connection was never answered");
    for (answer, which) in answers.iter().zip(["forever", "next", "retried"]) {
        let response = answer.as_ref().unwrap_or_else(|e| panic!("{which}: {e}"));
        assert_eq!(
            (response.kind(), response.target.as_str()),
            ("predict", TARGET)
        );
    }
    assert_eq!(server.stats().protocol_errors, 0);
}
