//! End-to-end loopback tests: a real [`NetServer`] on an OS-assigned
//! port, real [`NetClient`] connections, and — crucially — bitwise
//! comparison of every served answer against the in-process
//! [`Session::ask`] path.

use mnn_dataset::babi::{BabiGenerator, Story, TaskKind};
use mnn_dataset::{Vocabulary, WordId};
use mnn_memnn::train::Trainer;
use mnn_memnn::{MemNet, ModelConfig};
use mnn_net::{
    read_frame, write_frame, NetClient, NetErrorCode, NetFrame, NetServer, Response, ServerConfig,
    TenantAuth,
};
use mnn_serve::{AdmissionConfig, BatchConfig, Session, SessionConfig};
use mnnfast::Precision;
use std::collections::HashMap;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

const NS: usize = 8;

/// One small deterministic model plus held-out stories, shared by every
/// test in the file. Serving-compatible shape (position encoding, no
/// temporal rows) so a sliding window is safe.
fn trained_model() -> (MemNet, Vocabulary, Vec<Story>) {
    let mut generator = BabiGenerator::new(TaskKind::SingleSupportingFact, 2019);
    let train_set = generator.dataset(60, NS, 3);
    let test_set = generator.dataset(6, NS, 3);
    let config = ModelConfig {
        temporal: false,
        position_encoding: true,
        ..ModelConfig::for_generator(&generator, 16, NS)
    };
    let mut model = MemNet::new(config, 61);
    Trainer::new()
        .epochs(25)
        .momentum(0.5)
        .train(&mut model, &train_set);
    (model, generator.vocab().clone(), test_set)
}

/// The session shape every test serves with: a sliding window the size
/// of one story, so replaying many stories stays within the model's
/// positional range.
fn session_config(precision: Precision) -> SessionConfig {
    SessionConfig {
        max_sentences: Some(NS),
        precision,
        ..SessionConfig::default()
    }
}

fn server_config(tenants: &[(&str, &str)]) -> ServerConfig {
    ServerConfig {
        tenants: tenants
            .iter()
            .map(|(token, tenant)| TenantAuth {
                token: (*token).to_owned(),
                tenant: (*tenant).to_owned(),
            })
            .collect(),
        batching: Some(BatchConfig {
            max_batch: 4,
            max_wait: Duration::from_micros(500),
        }),
        ..ServerConfig::default()
    }
}

/// A server whose coalescing queue would, on a timer-driven flush policy,
/// hold a partial batch far beyond any test's patience: occupancy 64 is
/// never reached and `max_wait` is 30 s. Only the work-conserving policy
/// (idle flush, flush-before-observe, shutdown drain) answers anything.
fn patient_config() -> ServerConfig {
    ServerConfig {
        batching: Some(BatchConfig {
            max_batch: 64,
            max_wait: Duration::from_secs(30),
        }),
        ..server_config(&[("alpha", "alice")])
    }
}

/// An authenticated raw socket, for tests that must put several frames
/// into one `write` so they reach the scheduler back to back.
fn raw_connect(addr: SocketAddr, token: &str) -> TcpStream {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    let hello = NetFrame::Hello {
        token: token.into(),
    };
    write_frame(&mut stream, &hello).expect("hello");
    match read_frame(&mut stream).expect("hello ack") {
        NetFrame::HelloAck { .. } => stream,
        other => panic!("expected HelloAck, got {other:?}"),
    }
}

/// `n` asks cycling through the story's questions, ids `0..n`.
fn ask_burst(story: &Story, n: u64) -> Vec<NetFrame> {
    (0..n)
        .map(|id| NetFrame::AskTokens {
            id,
            tokens: story.questions[id as usize % story.questions.len()]
                .tokens
                .clone(),
        })
        .collect()
}

/// `frames`, encoded back to back for a single `write_all`.
fn pipelined(frames: &[NetFrame]) -> Vec<u8> {
    frames.iter().flat_map(NetFrame::encode).collect()
}

/// Replays `prelude`, then the stories, through a loopback connection and
/// through an in-process session, both configured `cfg`, and demands
/// bit-identical words AND probability bit patterns. Returns the
/// in-process session.
fn assert_loopback_parity(cfg: SessionConfig, prelude: &[Vec<WordId>]) -> Session {
    let (model, vocab, stories) = trained_model();
    let server = NetServer::spawn(
        model.clone(),
        vocab.clone(),
        cfg,
        server_config(&[("alpha", "alice")]),
    )
    .expect("server spawns");
    let (mut client, tenant) = NetClient::connect(server.addr(), "alpha").expect("connect");
    assert_eq!(tenant, "alice");
    client
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("timeout");

    let mut reference = Session::new(model, cfg).expect("in-process session");
    let mut compared = 0usize;
    let mut prelude = prelude;
    for story in &stories {
        for sentence in prelude.iter().chain(&story.sentences) {
            let remote = client.observe_tokens(sentence).expect("observe");
            reference.observe(sentence).expect("observe local");
            assert_eq!(remote as usize, reference.memory_len(), "memory in step");
        }
        prelude = &[];
        // Pipeline the story's questions so the server actually batches.
        let mut ids = Vec::new();
        for q in &story.questions {
            ids.push(client.send_ask_tokens(&q.tokens).expect("send"));
        }
        let mut answers = HashMap::new();
        for _ in &ids {
            match client.recv().expect("recv") {
                Response::Answer(a) => {
                    answers.insert(a.id, a);
                }
                other => panic!("expected an answer, got {other:?}"),
            }
        }
        for (q, id) in story.questions.iter().zip(&ids) {
            let local = reference.ask(&q.tokens).expect("ask local");
            let remote = &answers[id];
            assert_eq!(remote.word, local.word, "answer word over loopback");
            assert_eq!(
                remote.probability.to_bits(),
                local.probability.to_bits(),
                "probability must cross the wire bit-exactly"
            );
            assert_eq!(remote.degraded, local.degraded);
            assert_eq!(remote.text, vocab.word(local.word).unwrap_or(""));
            compared += 1;
        }
    }
    assert!(compared >= 12, "enough questions compared: {compared}");
    server.shutdown();
    reference
}

#[test]
fn loopback_answers_match_in_process_f32() {
    assert_loopback_parity(session_config(Precision::F32), &[]);
    let routed = SessionConfig {
        segments: 5,
        ..session_config(Precision::F32)
    };
    assert_loopback_parity(routed, &[]);
}

#[test]
fn loopback_answers_match_in_process_int8() {
    assert_loopback_parity(session_config(Precision::Int8), &[]);
}

/// A top-K server answers every wire question through the candidate
/// index: bitwise what an in-process top-K session's `ask` answers, with
/// rows really skipped (so exact attention would answer other bits).
#[test]
fn wire_answers_honour_top_k() {
    let mut generator = BabiGenerator::new(TaskKind::SingleSupportingFact, 7);
    let memory: Vec<Vec<WordId>> = generator
        .dataset(80, NS, 1)
        .into_iter()
        .flat_map(|story| story.sentences)
        .collect();
    assert!(memory.len() >= 600, "{} rows", memory.len());
    let cfg = SessionConfig {
        topk: 16,
        ..SessionConfig::default()
    };
    let sparse = assert_loopback_parity(cfg, &memory);
    assert!(sparse.cumulative_stats().rows_skipped_by_index > 0);
}

#[test]
fn concurrent_tenants_each_get_their_own_answers() {
    let (model, vocab, stories) = trained_model();
    let cfg = session_config(Precision::F32);
    let server = NetServer::spawn(
        model.clone(),
        vocab,
        cfg,
        server_config(&[("alpha", "alice"), ("beta", "bob")]),
    )
    .expect("server spawns");
    let addr = server.addr();

    // Each tenant serves a different story concurrently; answers must
    // match that tenant's in-process replay, proving coalescing across
    // tenants never leaks memory between them.
    let handles: Vec<_> = [("alpha", 0usize), ("beta", 1usize)]
        .into_iter()
        .map(|(token, story_idx)| {
            let story = stories[story_idx].clone();
            let model = model.clone();
            std::thread::spawn(move || {
                let (mut client, _) = NetClient::connect(addr, token).expect("connect");
                client
                    .set_read_timeout(Some(Duration::from_secs(20)))
                    .expect("timeout");
                let mut reference = Session::new(model, cfg).expect("in-process session");
                for sentence in &story.sentences {
                    client.observe_tokens(sentence).expect("observe");
                    reference.observe(sentence).expect("observe local");
                }
                for q in &story.questions {
                    let remote = match client.ask_tokens(&q.tokens).expect("ask") {
                        Response::Answer(a) => a,
                        other => panic!("expected answer, got {other:?}"),
                    };
                    let local = reference.ask(&q.tokens).expect("ask local");
                    assert_eq!(remote.word, local.word);
                    assert_eq!(remote.probability.to_bits(), local.probability.to_bits());
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("tenant thread");
    }
    server.shutdown();
}

#[test]
fn overload_sheds_typed_frames_and_recovers() {
    let (model, vocab, stories) = trained_model();
    // Capacity covers one full coalesced batch (cost = sentences × hops
    // per question, NS per question here, 4·NS per batch) but not two;
    // the burst below must shed, and the refill restores service within
    // tens of milliseconds.
    let server = NetServer::spawn(
        model,
        vocab,
        session_config(Precision::F32),
        ServerConfig {
            admission: Some(AdmissionConfig {
                capacity: 5 * NS as u64,
                refill_per_sec: 400,
            }),
            ..server_config(&[("alpha", "alice")])
        },
    )
    .expect("server spawns");
    let (mut client, _) = NetClient::connect(server.addr(), "alpha").expect("connect");
    client
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("timeout");
    let story = &stories[0];
    for sentence in &story.sentences {
        client.observe_tokens(sentence).expect("observe");
    }

    // Burst far past the bucket. Every response must decode (no dropped
    // connection, no malformed frame); the overflow must be typed
    // Overloaded with a positive retry hint.
    let burst = 16;
    for _ in 0..burst {
        client
            .send_ask_tokens(&story.questions[0].tokens)
            .expect("send");
    }
    let mut answered = 0;
    let mut shed = 0;
    for _ in 0..burst {
        match client.recv().expect("every frame decodes") {
            Response::Answer(_) => answered += 1,
            Response::Overloaded { retry_after_ms, .. } => {
                assert!(retry_after_ms > 0, "retry hint must be positive");
                shed += 1;
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
    assert!(answered >= 1, "the bucket admits the first questions");
    assert!(shed >= 1, "the burst must overflow the bucket");
    assert_eq!(answered + shed, burst);

    // Recovery: after the bucket refills the same connection serves
    // again — overload never costs the client its connection.
    std::thread::sleep(Duration::from_millis(200));
    let mut recovered = false;
    for _ in 0..10 {
        match client.ask_tokens(&story.questions[0].tokens).expect("ask") {
            Response::Answer(_) => {
                recovered = true;
                break;
            }
            Response::Overloaded { retry_after_ms, .. } => {
                std::thread::sleep(Duration::from_millis(retry_after_ms.min(100)));
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
    assert!(recovered, "service must recover once the bucket refills");

    let stats = client.stats().expect("stats");
    assert!(stats.shed_questions >= shed as u64);
    assert!(
        stats
            .sheds_by_tenant
            .iter()
            .any(|(t, n)| t == "alice" && *n >= shed as u64),
        "sheds are attributed to the bursting tenant: {:?}",
        stats.sheds_by_tenant
    );
    server.shutdown();
}

#[test]
fn killed_client_mid_request_reclaims_the_slot() {
    let (model, vocab, stories) = trained_model();
    let server = NetServer::spawn(
        model,
        vocab,
        session_config(Precision::F32),
        patient_config(),
    )
    .expect("server spawns");
    let story = &stories[0];
    const BURST: u64 = 32;

    {
        let (mut doomed, _) = NetClient::connect(server.addr(), "alpha").expect("connect");
        doomed
            .set_read_timeout(Some(Duration::from_secs(20)))
            .expect("timeout");
        for sentence in &story.sentences {
            doomed.observe_tokens(sentence).expect("observe");
        }
    }
    {
        // A burst of asks in one write keeps the scheduler busy well past
        // the hang-up: the client is gone before most of its answers
        // exist, with requests still queued server-side.
        let mut doomed = raw_connect(server.addr(), "alpha");
        let asks = ask_burst(story, BURST);
        doomed.write_all(&pipelined(&asks)).expect("burst");
        // Drop without reading a single answer.
    }

    // The server must flush the orphaned questions, drop the unroutable
    // answers, and keep serving new connections at full health.
    let (mut client, _) = NetClient::connect(server.addr(), "alpha").expect("reconnect");
    client
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("timeout");
    match client.ask_tokens(&story.questions[0].tokens).expect("ask") {
        Response::Answer(_) => {}
        other => panic!("expected answer, got {other:?}"),
    }
    // Poll stats until the orphaned questions have been flushed: the pool
    // must hold zero pending questions (the dead client's slots are
    // reclaimed, not leaked).
    let mut drained = false;
    for _ in 0..100 {
        let stats = client.stats().expect("stats");
        if stats.pending_questions == 0 && stats.questions_answered >= 2 {
            drained = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(drained, "orphaned asks must be flushed, not leaked");
    server.shutdown();
}

#[test]
fn bad_bytes_get_a_typed_error_not_a_hangup() {
    use std::io::{Read, Write};
    let (model, vocab, _) = trained_model();
    let server = NetServer::spawn(
        model,
        vocab,
        session_config(Precision::F32),
        server_config(&[("alpha", "alice")]),
    )
    .expect("server spawns");

    let mut raw = std::net::TcpStream::connect(server.addr()).expect("connect");
    raw.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    raw.write_all(b"GET / HTTP/1.1\r\n\r\n")
        .expect("write garbage");
    // The server answers a typed error frame before closing.
    let mut reader = std::io::BufReader::new(raw);
    let frame = mnn_net::read_frame(&mut reader).expect("typed error frame");
    match frame {
        mnn_net::NetFrame::Error { id, code, .. } => {
            assert_eq!(id, mnn_net::NO_REQUEST);
            assert_eq!(code, NetErrorCode::BadRequest);
        }
        other => panic!("expected error frame, got {other:?}"),
    }
    // After the error the connection drains closed.
    let mut rest = Vec::new();
    let n = reader.read_to_end(&mut rest).unwrap_or(0);
    assert_eq!(n, 0, "connection closes after the protocol error");

    // An honest client on a fresh connection is unaffected.
    let (_client, tenant) = NetClient::connect(server.addr(), "alpha").expect("connect");
    assert_eq!(tenant, "alice");
    server.shutdown();
}

#[test]
fn auth_is_required_and_tokens_are_checked() {
    let (model, vocab, stories) = trained_model();
    let server = NetServer::spawn(
        model,
        vocab,
        session_config(Precision::F32),
        server_config(&[("alpha", "alice")]),
    )
    .expect("server spawns");

    // Wrong token: typed auth rejection.
    match NetClient::connect(server.addr(), "wrong") {
        Err(mnn_net::NetError::Rejected { code, .. }) => assert_eq!(code, NetErrorCode::Auth),
        other => panic!("expected auth rejection, got {other:?}"),
    }

    // No hello at all: asks are refused with an auth error, not served.
    {
        use std::io::Write;
        let mut raw = std::net::TcpStream::connect(server.addr()).expect("connect");
        raw.set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        let ask = mnn_net::NetFrame::AskTokens {
            id: 7,
            tokens: stories[0].questions[0].tokens.clone(),
        };
        raw.write_all(&ask.encode()).expect("write");
        let mut reader = std::io::BufReader::new(raw);
        match mnn_net::read_frame(&mut reader).expect("frame") {
            mnn_net::NetFrame::Error { id, code, .. } => {
                assert_eq!(id, 7);
                assert_eq!(code, NetErrorCode::Auth);
            }
            other => panic!("expected auth error, got {other:?}"),
        }
    }
    server.shutdown();
}

#[test]
fn shutdown_drains_queued_questions_before_acking() {
    let (model, vocab, stories) = trained_model();
    let server = NetServer::spawn(
        model,
        vocab,
        session_config(Precision::F32),
        patient_config(),
    )
    .expect("server spawns");
    let story = &stories[0];

    let (mut asker, _) = NetClient::connect(server.addr(), "alpha").expect("connect");
    asker
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("timeout");
    for sentence in &story.sentences {
        asker.observe_tokens(sentence).expect("observe");
    }

    // A burst of asks with the shutdown right behind it, in one write: the
    // scheduler is mid-backlog when the shutdown reaches it, with accepted
    // questions still in the coalescing queue.
    let mut admin = raw_connect(server.addr(), "alpha");
    let mut frames = ask_burst(story, 24);
    let asked = frames.len();
    frames.push(NetFrame::Shutdown);
    admin.write_all(&pipelined(&frames)).expect("burst");

    // Every accepted ask is answered, and answered before the ack.
    let mut got = 0;
    loop {
        match read_frame(&mut admin).expect("drained answer or ack") {
            NetFrame::Answer { .. } => got += 1,
            NetFrame::ShutdownAck => break,
            other => panic!("expected drained answer, got {other:?}"),
        }
    }
    assert_eq!(got, asked, "no accepted question goes unanswered");
    server.wait();
}

#[test]
fn lone_ask_is_served_at_once_whatever_max_wait_says() {
    let (model, vocab, stories) = trained_model();
    let server = NetServer::spawn(
        model,
        vocab,
        session_config(Precision::F32),
        patient_config(),
    )
    .expect("server spawns");
    let (mut client, _) = NetClient::connect(server.addr(), "alpha").expect("connect");
    client
        .set_read_timeout(Some(Duration::from_secs(2)))
        .expect("timeout");
    let story = &stories[0];
    for sentence in &story.sentences {
        client.observe_tokens(sentence).expect("observe");
    }
    // Nothing else is in flight, so nothing is worth waiting for: the
    // answer must beat the 2 s read timeout, not the 30 s max_wait.
    match client.ask_tokens(&story.questions[0].tokens) {
        Ok(Response::Answer(_)) => {}
        other => panic!("a lone ask must not be held for max_wait: {other:?}"),
    }
    let stats = client.stats().expect("stats");
    assert_eq!(stats.batch_occupancy[0], 1, "one batch of one");
    server.shutdown();
}

#[test]
fn observe_does_not_overtake_a_queued_ask() {
    let (model, vocab, stories) = trained_model();
    let cfg = session_config(Precision::F32);
    let story = &stories[0];
    let question = &story.questions[0].tokens;
    let replay = |extra: Option<&Vec<u32>>| {
        let mut session = Session::new(model.clone(), cfg).expect("session");
        for sentence in story.sentences.iter().chain(extra) {
            session.observe(sentence).expect("observe");
        }
        session.ask(question).expect("ask")
    };
    // A sentence whose arrival changes the answer to the question.
    let before = replay(None);
    let sentence = stories
        .iter()
        .flat_map(|s| &s.sentences)
        .find(|&s| replay(Some(s)).word != before.word)
        .expect("some sentence moves the answer");

    let server =
        NetServer::spawn(model.clone(), vocab, cfg, patient_config()).expect("server spawns");
    let (mut client, _) = NetClient::connect(server.addr(), "alpha").expect("connect");
    client
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("timeout");
    for s in &story.sentences {
        client.observe_tokens(s).expect("observe");
    }
    // Ask, then observe, in one write on one connection: the ask is still
    // in the coalescing queue when the observe reaches the scheduler.
    let mut raw = raw_connect(server.addr(), "alpha");
    let frames = [
        NetFrame::AskTokens {
            id: 1,
            tokens: question.clone(),
        },
        NetFrame::ObserveTokens {
            id: 2,
            tokens: sentence.clone(),
        },
    ];
    raw.write_all(&pipelined(&frames)).expect("write");
    match read_frame(&mut raw).expect("the ask is answered first") {
        NetFrame::Answer {
            id,
            word,
            probability,
            ..
        } => {
            assert_eq!(id, 1);
            assert_eq!(word, before.word, "answered against the pre-observe memory");
            assert_eq!(probability.to_bits(), before.probability.to_bits());
        }
        other => panic!("expected the answer first, got {other:?}"),
    }
    match read_frame(&mut raw).expect("then the observe is acknowledged") {
        NetFrame::ObserveAck { id, .. } => assert_eq!(id, 2),
        other => panic!("expected ObserveAck, got {other:?}"),
    }
    // The sentence did land: the same question now sees it.
    match client.ask_tokens(question).expect("ask") {
        Response::Answer(a) => assert_eq!(a.word, replay(Some(sentence)).word),
        other => panic!("expected answer, got {other:?}"),
    }
    server.shutdown();
}
