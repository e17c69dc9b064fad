//! A resending pipeliner on `abpd::Client`'s raw-line calls: `depth` `DecideBatch`
//! lines per write, so their replies leave in one corked flush. A window that meets
//! a transport failure or an `Error` reply is resent, which cannot change a pure
//! decision. A test binary includes this file as a module.

use abpd::protocol::{DecisionResponse, ServerMessage};
use abpd::{Client, DecisionRequest};
use std::{net::SocketAddr, time::Duration};

/// Sends of one window, the first included.
const ATTEMPTS: usize = 5;

/// Each request's last answer, in request order: `None` if its line never
/// got a reply, `Some(Err)` if the last one was `Error`. The count is the
/// resent windows.
pub fn decide_resending(
    addr: SocketAddr,
    reqs: &[DecisionRequest],
    batch: usize,
    depth: usize,
) -> (Vec<Option<Result<DecisionResponse, String>>>, usize) {
    let lines: Vec<&[DecisionRequest]> = reqs.chunks(batch).collect();
    let mut answers = vec![None; reqs.len()];
    let (mut resends, mut body) = (0, Vec::new());
    for start in (0..lines.len()).step_by(depth) {
        for attempt in 0..ATTEMPTS {
            let todo: Vec<usize> = (start..lines.len().min(start + depth))
                .filter(|&i| !matches!(answers[i * batch], Some(Ok(_))))
                .collect();
            if todo.is_empty() {
                break;
            }
            resends += usize::from(attempt > 0);
            // Each send on a connection of its own: no reply to an earlier one reaches it.
            let Ok(mut c) = Client::connect_timeout(addr, Duration::from_secs(10)) else {
                continue;
            };
            body.clear();
            for &i in &todo {
                body.push(b'\n');
                abpd::wire::write_decide_batch(lines[i], &mut body);
            }
            if c.send_raw(&body[1..]).is_err() {
                continue;
            }
            for &i in &todo {
                let Ok(reply) = c.read_reply_raw() else { break };
                let span = &mut answers[i * batch..][..lines[i].len()];
                match std::str::from_utf8(reply).map(abpd::wire::parse_server_message) {
                    Ok(Ok(ServerMessage::Batch(b))) if b.len() == span.len() => {
                        span.iter_mut().zip(b).for_each(|(a, d)| *a = Some(Ok(d)));
                    }
                    Ok(Ok(ServerMessage::Error(e))) => span.fill(Some(Err(e))),
                    _ => break, // out of step: its later replies are not these lines'.
                }
            }
        }
    }
    (answers, resends)
}
