//! A closed-loop burst against a deliberately tiny server: clients that
//! retry `busy` refusals all complete. The flood test of the admission
//! contract itself runs in-crate (`server::tests`), where it can hold the
//! worker back until the whole flood has been read.

use snslp_serve::{Client, ServeConfig, Server, STATUS_OK};

const MODE: &str = "snslp";
const TARGET: &str = "avx2";

/// A tiny server: one worker, four requests in flight.
fn tiny_config() -> ServeConfig {
    ServeConfig {
        workers: 1,
        max_inflight: 4,
        ..ServeConfig::default()
    }
}

#[test]
fn busy_clients_succeed_by_retrying() {
    // The Client helper retries busy refusals: even against the tiny
    // server, a closed-loop burst of distinct modules all completes.
    let server = Server::start(tiny_config());
    let results: Vec<u64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..6)
            .map(|c| {
                let server = &server;
                s.spawn(move || {
                    let mut client =
                        Client::from_stream(server.connect_in_process().expect("connect"));
                    let mut busy = 0;
                    for r in 0..6u64 {
                        let case = snslp_fuzz::generate(0xB0B, c * 100 + r);
                        let text = format!("{}\n", case.function);
                        let (reply, retries) = client
                            .compile(&text, MODE, TARGET, &[])
                            .expect("compile with retry");
                        assert_eq!(reply.status, STATUS_OK, "retry must end in success");
                        busy += retries;
                    }
                    busy
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    });
    // Refusals are load-dependent; the invariant is completion, and the
    // counter lets a human eyeball that the tiny server did push back.
    let total_busy: u64 = results.iter().sum();
    println!("busy refusals retried: {total_busy}");
    server.shutdown();
}
