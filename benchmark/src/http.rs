//! A std-only HTTP/1.1 client for the daemon's surface: one request per
//! connection (`Connection: close`, which is all the daemon speaks), a
//! Server-Sent-Events reader, and the 429 / `Retry-After` discipline.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// No reply from a local daemon takes this long; a stuck read fails the
/// run instead of hanging it.
const IO_TIMEOUT: Duration = Duration::from_secs(60);
/// Shortest pause before retrying a refused submission, so a
/// `Retry-After: 0` cannot turn the client into a busy loop.
const MIN_BACKOFF: Duration = Duration::from_millis(20);

/// A complete HTTP reply.
#[derive(Debug)]
pub struct Response {
    pub status: u16,
    headers: Vec<(String, String)>,
    pub body: String,
}

impl Response {
    /// The value of header `name` (case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

fn invalid(what: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string())
}

fn open(addr: &str, method: &str, path: &str, body: &str) -> std::io::Result<TcpStream> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes())?;
    Ok(stream)
}

/// Reads the status line and headers, leaving the reader at the body.
fn read_head(reader: &mut impl BufRead) -> std::io::Result<(u16, Vec<(String, String)>)> {
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let status = line
        .split_whitespace()
        .nth(1)
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| invalid("malformed status line"))?;
    let mut headers = Vec::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 || line.trim_end().is_empty() {
            return Ok((status, headers));
        }
        if let Some((name, value)) = line.split_once(':') {
            headers.push((name.trim().to_string(), value.trim().to_string()));
        }
    }
}

/// Sends one request and reads the whole reply.
pub fn request(addr: &str, method: &str, path: &str, body: &str) -> std::io::Result<Response> {
    let mut reader = BufReader::new(open(addr, method, path, body)?);
    let (status, headers) = read_head(&mut reader)?;
    let mut body = String::new();
    reader.read_to_string(&mut body)?;
    Ok(Response {
        status,
        headers,
        body,
    })
}

/// `GET path`.
pub fn get(addr: &str, path: &str) -> std::io::Result<Response> {
    request(addr, "GET", path, "")
}

/// What a submission cost.
#[derive(Debug)]
pub struct Submitted {
    /// The final reply.
    pub response: Response,
    /// How often the submission was refused with 429 before that.
    pub refusals: u32,
    /// How long the request that got the final reply took.
    pub final_request: Duration,
}

/// `POST path`, obeying back-pressure: a 429 is answered by sleeping the
/// reply's `Retry-After` seconds and trying again, at most `max_refusals`
/// times. Any other status is returned as it came.
pub fn post_obeying_retry_after(
    addr: &str,
    path: &str,
    body: &str,
    max_refusals: u32,
) -> std::io::Result<Submitted> {
    let mut refusals = 0;
    loop {
        let started = Instant::now();
        let response = request(addr, "POST", path, body)?;
        let final_request = started.elapsed();
        if response.status != 429 || refusals >= max_refusals {
            return Ok(Submitted {
                response,
                refusals,
                final_request,
            });
        }
        refusals += 1;
        let seconds = response
            .header("Retry-After")
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(1);
        std::thread::sleep(Duration::from_secs(seconds).max(MIN_BACKOFF));
    }
}

/// One dispatched Server-Sent Event.
#[derive(Debug, Clone, PartialEq)]
pub struct SseEvent {
    /// The `event:` field (`message` when the stream names none).
    pub event: String,
    /// The `data:` lines joined by newlines.
    pub data: String,
}

/// Line-at-a-time SSE decoder: fields accumulate until a blank line
/// dispatches them; `:` comment lines (the daemon's keep-alives) and
/// unknown fields are skipped.
#[derive(Debug, Default)]
pub struct SseParser {
    event: String,
    data: String,
    pending: bool,
}

impl SseParser {
    /// Feeds one line (without its terminator); returns the event a blank
    /// line completes.
    pub fn feed_line(&mut self, line: &str) -> Option<SseEvent> {
        if line.is_empty() {
            if !self.pending {
                return None;
            }
            self.pending = false;
            let event = std::mem::take(&mut self.event);
            return Some(SseEvent {
                event: if event.is_empty() {
                    "message".to_string()
                } else {
                    event
                },
                data: std::mem::take(&mut self.data),
            });
        }
        if line.starts_with(':') {
            return None;
        }
        let (field, value) = line.split_once(':').unwrap_or((line, ""));
        let value = value.strip_prefix(' ').unwrap_or(value);
        match field {
            "event" => {
                self.event = value.to_string();
                self.pending = true;
            }
            "data" => {
                if !self.data.is_empty() {
                    self.data.push('\n');
                }
                self.data.push_str(value);
                self.pending = true;
            }
            _ => {}
        }
        None
    }
}

/// How following one session's event stream went.
#[derive(Debug)]
pub struct Followed {
    /// Request sent → response headers read.
    pub connect: Duration,
    /// `step` events seen before the `end` event.
    pub steps: usize,
    /// The `end` event's data (`{"session":…,"state":…}`).
    pub end_data: String,
}

/// Follows the SSE stream at `path` to its `end` event.
pub fn follow_to_end(addr: &str, path: &str) -> std::io::Result<Followed> {
    let started = Instant::now();
    let mut reader = BufReader::new(open(addr, "GET", path, "")?);
    let (status, _) = read_head(&mut reader)?;
    if status != 200 {
        return Err(invalid(&format!("event stream answered {status}")));
    }
    let connect = started.elapsed();
    read_events_to_end(&mut reader, connect)
}

fn read_events_to_end(reader: &mut impl BufRead, connect: Duration) -> std::io::Result<Followed> {
    let mut parser = SseParser::default();
    let mut steps = 0;
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(invalid("event stream closed before its end event"));
        }
        let Some(event) = parser.feed_line(line.trim_end_matches(['\r', '\n'])) else {
            continue;
        };
        match event.event.as_str() {
            "step" => steps += 1,
            "end" => {
                return Ok(Followed {
                    connect,
                    steps,
                    end_data: event.data,
                })
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn sse_stream_with_no_step_events_still_ends() {
        // What the daemon sends when the session finished before the
        // subscriber attached: keep-alives, then `end`.
        let wire = ": keep-alive\n\n: keep-alive\n\nevent: end\ndata: {\"session\":7,\"state\":\"done\"}\n\n";
        let followed = read_events_to_end(&mut wire.as_bytes(), Duration::from_millis(1)).unwrap();
        assert_eq!(followed.steps, 0);
        assert_eq!(followed.end_data, "{\"session\":7,\"state\":\"done\"}");
    }

    #[test]
    fn sse_parser_counts_steps_and_joins_data_lines() {
        let mut parser = SseParser::default();
        let mut events = Vec::new();
        for line in [
            "event: step",
            "id: 0",
            "data: {\"step\":0}",
            "",
            "",
            "data: a",
            "data:b",
            "",
            ": comment",
            "event: end",
            "data: {}",
        ] {
            events.extend(parser.feed_line(line));
        }
        assert_eq!(
            events.len(),
            2,
            "the unterminated end event is not dispatched"
        );
        assert_eq!(events[0].event, "step");
        assert_eq!(events[0].data, "{\"step\":0}");
        assert_eq!(events[1].event, "message");
        assert_eq!(events[1].data, "a\nb");
        let truncated = "event: step\ndata: {}\n\n";
        assert!(read_events_to_end(&mut truncated.as_bytes(), Duration::ZERO).is_err());
    }

    /// Serves `replies` in order, one per connection, and returns what each
    /// connection sent.
    fn stub_server(replies: Vec<&'static str>) -> (String, std::thread::JoinHandle<Vec<String>>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || {
            replies
                .into_iter()
                .map(|reply| {
                    let (mut stream, _) = listener.accept().unwrap();
                    let mut reader = BufReader::new(stream.try_clone().unwrap());
                    let mut head = String::new();
                    let mut length = 0;
                    loop {
                        let mut line = String::new();
                        reader.read_line(&mut line).unwrap();
                        if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
                            length = v.trim().parse().unwrap();
                        }
                        if line == "\r\n" {
                            break;
                        }
                        head.push_str(&line);
                    }
                    let mut body = vec![0; length];
                    reader.read_exact(&mut body).unwrap();
                    stream.write_all(reply.as_bytes()).unwrap();
                    head + &String::from_utf8(body).unwrap()
                })
                .collect()
        });
        (addr, handle)
    }

    #[test]
    fn refused_submission_is_retried_after_the_stated_pause() {
        let (addr, server) = stub_server(vec![
            "HTTP/1.1 429 Too Many Requests\r\nretry-after: 0\r\nContent-Length: 2\r\nConnection: close\r\n\r\n{}",
            "HTTP/1.1 201 Created\r\nContent-Length: 8\r\nConnection: close\r\n\r\n{\"id\":3}",
        ]);
        let started = Instant::now();
        let submitted = post_obeying_retry_after(&addr, "/sessions", "{\"steps\":6}", 5).unwrap();
        assert!(started.elapsed() >= MIN_BACKOFF + submitted.final_request);
        assert_eq!(submitted.refusals, 1);
        assert_eq!(submitted.response.status, 201);
        assert_eq!(submitted.response.body, "{\"id\":3}");
        let seen = server.join().unwrap();
        assert_eq!(seen.len(), 2);
        assert!(seen[1].starts_with("POST /sessions HTTP/1.1\r\n"));
        assert!(seen[1].ends_with("{\"steps\":6}"));
    }

    #[test]
    fn refusals_beyond_the_limit_are_returned_not_retried() {
        let (addr, server) = stub_server(vec![
            "HTTP/1.1 429 Too Many Requests\r\nRetry-After: 0\r\nContent-Length: 0\r\n\r\n",
        ]);
        let submitted = post_obeying_retry_after(&addr, "/sessions", "", 0).unwrap();
        assert_eq!(submitted.response.status, 429);
        assert_eq!(submitted.response.header("RETRY-AFTER"), Some("0"));
        assert_eq!(submitted.refusals, 0);
        server.join().unwrap();
    }
}
