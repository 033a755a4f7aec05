//! Remote model registry: resolve `file://` / `http://` model references
//! into an on-disk content-addressed cache with sha256 checksum pinning.
//!
//! Layout under the registry root:
//!
//! ```text
//! <root>/sha256/<hex-digest>    # the model bytes, named by their digest
//! <root>/manifest.json          # digest → {source, bytes, fetched_unix}
//! ```
//!
//! Files are immutable once written (a content address never changes
//! meaning), writes go through a temp-file + rename so a crashed pull never
//! leaves a half-written entry under a valid digest, and a pinned pull that
//! finds its digest already cached is served without touching the network.
//! A checksum mismatch refuses the pull *before* anything is written: the
//! cache only ever holds bytes that hashed to their own name.
//!
//! Errors carry stable `RG-*` codes, mirroring the `SV-*`/`ONNX-*`
//! conventions elsewhere in the stack.

use crate::sha256;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Structured registry failure; `code()` is the stable machine-readable
/// class.
#[derive(Debug, Clone, PartialEq)]
pub enum RegistryError {
    /// Unsupported or malformed reference scheme (e.g. `https://` — no TLS
    /// stack is available in this build).
    Scheme { reference: String, reason: String },
    /// HTTP fetch failure (connect, malformed response, non-200 status).
    Http { url: String, reason: String },
    /// Local filesystem failure (read of a `file://` source, cache write).
    Io { path: String, reason: String },
    /// The fetched bytes do not hash to the pinned digest. Nothing was
    /// cached.
    Checksum { expected: String, actual: String },
    /// The manifest exists but cannot be parsed.
    Manifest { path: String, reason: String },
}

impl RegistryError {
    pub fn code(&self) -> &'static str {
        match self {
            RegistryError::Scheme { .. } => "RG-SCHEME",
            RegistryError::Http { .. } => "RG-HTTP",
            RegistryError::Io { .. } => "RG-IO",
            RegistryError::Checksum { .. } => "RG-CHECKSUM",
            RegistryError::Manifest { .. } => "RG-MANIFEST",
        }
    }
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] ", self.code())?;
        match self {
            RegistryError::Scheme { reference, reason } => {
                write!(f, "cannot resolve `{reference}`: {reason}")
            }
            RegistryError::Http { url, reason } => write!(f, "GET {url} failed: {reason}"),
            RegistryError::Io { path, reason } => write!(f, "{path}: {reason}"),
            RegistryError::Checksum { expected, actual } => write!(
                f,
                "checksum mismatch: pinned sha256 {expected}, fetched bytes hash to {actual}; \
                 refusing to cache or load"
            ),
            RegistryError::Manifest { path, reason } => {
                write!(f, "corrupt manifest {path}: {reason}")
            }
        }
    }
}

impl std::error::Error for RegistryError {}

/// One manifest row: provenance for a cached digest.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct ManifestEntry {
    /// Where the bytes came from (`file://…`, `http://…`, or a plain path).
    pub source: String,
    /// Size in bytes.
    pub bytes: u64,
    /// Unix seconds at fetch time (provenance only; never used for cache
    /// validity — content addresses don't expire).
    pub fetched_unix: u64,
}

#[derive(Debug, Default, Serialize, Deserialize)]
struct Manifest {
    models: BTreeMap<String, ManifestEntry>,
}

/// A successfully resolved model reference.
#[derive(Debug, Clone)]
pub struct Pulled {
    /// Lowercase hex sha256 of the bytes — the content address.
    pub sha256: String,
    /// Cache path holding the bytes (`<root>/sha256/<digest>`).
    pub path: PathBuf,
    /// The reference that was resolved.
    pub source: String,
    /// Size in bytes.
    pub bytes: u64,
    /// True when the pinned digest was already cached and no fetch ran.
    pub cache_hit: bool,
}

/// The on-disk content-addressed model cache.
#[derive(Debug, Clone)]
pub struct Registry {
    root: PathBuf,
}

impl Registry {
    /// A registry rooted at `root` (created lazily on first pull).
    pub fn new(root: impl Into<PathBuf>) -> Registry {
        Registry { root: root.into() }
    }

    /// Default cache root: `$RAMIEL_CACHE`, else `~/.cache/ramiel`, else
    /// `./.ramiel-cache`.
    pub fn default_root() -> PathBuf {
        if let Ok(dir) = std::env::var("RAMIEL_CACHE") {
            return PathBuf::from(dir);
        }
        if let Ok(home) = std::env::var("HOME") {
            return Path::new(&home).join(".cache").join("ramiel");
        }
        PathBuf::from(".ramiel-cache")
    }

    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Cache path for a digest, whether or not it exists yet.
    pub fn blob_path(&self, sha256_hex: &str) -> PathBuf {
        self.root.join("sha256").join(sha256_hex)
    }

    /// The cached blob for `sha256_hex`, if present.
    pub fn lookup(&self, sha256_hex: &str) -> Option<PathBuf> {
        let p = self.blob_path(sha256_hex);
        p.is_file().then_some(p)
    }

    /// Resolve `reference` into the cache, verifying against `pin` when
    /// given. `file://<path>` and plain paths read the local filesystem;
    /// `http://host[:port]/path` fetches over TCP. A pinned pull whose
    /// digest is already cached returns without fetching.
    pub fn pull(&self, reference: &str, pin: Option<&str>) -> Result<Pulled, RegistryError> {
        let pin = match pin {
            Some(p) => {
                let p = p.to_ascii_lowercase();
                if p.len() != 64 || !p.bytes().all(|b| b.is_ascii_hexdigit()) {
                    return Err(RegistryError::Scheme {
                        reference: reference.to_string(),
                        reason: format!("`{p}` is not a 64-hex-digit sha256"),
                    });
                }
                Some(p)
            }
            None => None,
        };
        if let Some(pin) = &pin {
            if let Some(path) = self.lookup(pin) {
                let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
                return Ok(Pulled {
                    sha256: pin.clone(),
                    path,
                    source: reference.to_string(),
                    bytes,
                    cache_hit: true,
                });
            }
        }

        let data = fetch(reference)?;
        let digest = sha256::hex_digest(&data);
        if let Some(pin) = &pin {
            if *pin != digest {
                return Err(RegistryError::Checksum {
                    expected: pin.clone(),
                    actual: digest,
                });
            }
        }
        let path = self.store(&digest, &data)?;
        self.record(&digest, reference, data.len() as u64)?;
        Ok(Pulled {
            sha256: digest,
            path,
            source: reference.to_string(),
            bytes: data.len() as u64,
            cache_hit: false,
        })
    }

    /// Write `data` under its digest via temp-file + rename.
    fn store(&self, digest: &str, data: &[u8]) -> Result<PathBuf, RegistryError> {
        let blob_dir = self.root.join("sha256");
        let io_err = |path: &Path, e: std::io::Error| RegistryError::Io {
            path: path.display().to_string(),
            reason: e.to_string(),
        };
        std::fs::create_dir_all(&blob_dir).map_err(|e| io_err(&blob_dir, e))?;
        let dest = blob_dir.join(digest);
        if dest.is_file() {
            return Ok(dest); // immutable by construction: same digest, same bytes
        }
        let tmp = blob_dir.join(format!(".tmp-{}-{digest}", std::process::id()));
        std::fs::write(&tmp, data).map_err(|e| io_err(&tmp, e))?;
        std::fs::rename(&tmp, &dest).map_err(|e| io_err(&dest, e))?;
        Ok(dest)
    }

    /// Merge one entry into the manifest.
    fn record(&self, digest: &str, source: &str, bytes: u64) -> Result<(), RegistryError> {
        let mut manifest = self.manifest()?;
        let fetched_unix = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        manifest.insert(
            digest.to_string(),
            ManifestEntry {
                source: source.to_string(),
                bytes,
                fetched_unix,
            },
        );
        let path = self.root.join("manifest.json");
        let body = serde_json::to_string_pretty(&Manifest { models: manifest }).map_err(|e| {
            RegistryError::Manifest {
                path: path.display().to_string(),
                reason: e.to_string(),
            }
        })?;
        let tmp = self
            .root
            .join(format!(".manifest-tmp-{}", std::process::id()));
        let io_err = |p: &Path, e: std::io::Error| RegistryError::Io {
            path: p.display().to_string(),
            reason: e.to_string(),
        };
        std::fs::write(&tmp, body).map_err(|e| io_err(&tmp, e))?;
        std::fs::rename(&tmp, &path).map_err(|e| io_err(&path, e))?;
        Ok(())
    }

    /// The manifest contents (empty when no pull has run yet).
    pub fn manifest(&self) -> Result<BTreeMap<String, ManifestEntry>, RegistryError> {
        let path = self.root.join("manifest.json");
        let body = match std::fs::read_to_string(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(BTreeMap::new()),
            Err(e) => {
                return Err(RegistryError::Io {
                    path: path.display().to_string(),
                    reason: e.to_string(),
                })
            }
        };
        serde_json::from_str::<Manifest>(&body)
            .map(|m| m.models)
            .map_err(|e| RegistryError::Manifest {
                path: path.display().to_string(),
                reason: e.to_string(),
            })
    }
}

/// Fetch the raw bytes behind a reference.
fn fetch(reference: &str) -> Result<Vec<u8>, RegistryError> {
    if let Some(rest) = reference.strip_prefix("file://") {
        return std::fs::read(rest).map_err(|e| RegistryError::Io {
            path: rest.to_string(),
            reason: e.to_string(),
        });
    }
    if reference.starts_with("http://") {
        return http_get(reference, MAX_HTTP_BODY_BYTES);
    }
    if let Some((scheme, _)) = reference.split_once("://") {
        return Err(RegistryError::Scheme {
            reference: reference.to_string(),
            reason: format!(
                "scheme `{scheme}://` is not supported (no TLS stack in this build); \
                 use http:// or file://"
            ),
        });
    }
    // No scheme: a plain local path.
    std::fs::read(reference).map_err(|e| RegistryError::Io {
        path: reference.to_string(),
        reason: e.to_string(),
    })
}

/// Largest response body [`Registry::pull`] accepts over HTTP: protobuf's
/// own 2 GiB message limit, so no loadable `.onnx` file is refused.
pub const MAX_HTTP_BODY_BYTES: u64 = 2 << 30;

/// Largest response head (status line plus headers) a fetch reads.
const MAX_HTTP_HEAD_BYTES: u64 = 64 << 10;

/// Connect, read and write timeout of one registry fetch.
const HTTP_TIMEOUT: Duration = Duration::from_secs(30);

/// Connect to the first reachable address of `host_port`, with
/// [`HTTP_TIMEOUT`] on the connect and on every later read and write.
fn connect(host_port: &str) -> std::io::Result<TcpStream> {
    let mut last = std::io::Error::from(std::io::ErrorKind::AddrNotAvailable);
    for addr in host_port.to_socket_addrs()? {
        match TcpStream::connect_timeout(&addr, HTTP_TIMEOUT) {
            Ok(stream) => {
                stream.set_read_timeout(Some(HTTP_TIMEOUT))?;
                stream.set_write_timeout(Some(HTTP_TIMEOUT))?;
                return Ok(stream);
            }
            Err(e) => last = e,
        }
    }
    Err(last)
}

/// Minimal HTTP/1.0 GET over `std::net` (`Connection: close`, body read to
/// EOF — no chunked encoding to handle). Enough for the loopback fixture
/// server and any plain static file host. A declared `Content-Length` over
/// `cap` is refused before the body is read; a body that runs past `cap`
/// anyway (length left out or understated) is cut off one byte over and
/// refused.
fn http_get(url: &str, cap: u64) -> Result<Vec<u8>, RegistryError> {
    let err = |reason: String| RegistryError::Http {
        url: url.to_string(),
        reason,
    };
    let rest = url.strip_prefix("http://").expect("caller checked scheme");
    let (host_port, path) = match rest.split_once('/') {
        Some((hp, p)) => (hp, format!("/{p}")),
        None => (rest, "/".to_string()),
    };
    let host_port = if host_port.contains(':') {
        host_port.to_string()
    } else {
        format!("{host_port}:80")
    };
    let mut stream = connect(&host_port).map_err(|e| err(format!("connect {host_port}: {e}")))?;
    let host = host_port
        .rsplit_once(':')
        .map(|(h, _)| h)
        .unwrap_or(&host_port);
    stream
        .write_all(
            format!("GET {path} HTTP/1.0\r\nHost: {host}\r\nConnection: close\r\n\r\n").as_bytes(),
        )
        .map_err(|e| err(format!("send request: {e}")))?;

    let mut reader = BufReader::new(stream);
    let mut head = Vec::new();
    {
        let mut limited = (&mut reader).take(MAX_HTTP_HEAD_BYTES);
        loop {
            let line_start = head.len();
            let n = limited
                .read_until(b'\n', &mut head)
                .map_err(|e| err(format!("read response: {e}")))?;
            if n == 0 {
                return Err(err(format!(
                    "malformed response (no header terminator within {MAX_HTTP_HEAD_BYTES} bytes)"
                )));
            }
            if matches!(&head[line_start..], b"\r\n" | b"\n") {
                break;
            }
        }
    }
    let head = String::from_utf8_lossy(&head);
    let status_line = head.lines().next().unwrap_or_default();
    let status = status_line
        .split_whitespace()
        .nth(1)
        .ok_or_else(|| err(format!("malformed status line `{status_line}`")))?;
    if status != "200" {
        return Err(err(format!("status {status}")));
    }
    let declared: Option<u64> = head
        .lines()
        .find(|l| l.to_ascii_lowercase().starts_with("content-length:"))
        .and_then(|l| l[15..].trim().parse().ok());
    if let Some(len) = declared.filter(|&len| len > cap) {
        return Err(err(format!(
            "Content-Length {len} exceeds the {cap}-byte body cap"
        )));
    }
    let mut body = Vec::new();
    reader
        .take(cap + 1)
        .read_to_end(&mut body)
        .map_err(|e| err(format!("read response: {e}")))?;
    if body.len() as u64 > cap {
        return Err(err(format!("body exceeds the {cap}-byte cap")));
    }
    if let Some(expected) = declared.filter(|&len| len != body.len() as u64) {
        return Err(err(format!(
            "body length mismatch: Content-Length {expected}, got {} bytes",
            body.len()
        )));
    }
    Ok(body)
}

/// A loopback static-file HTTP server for tests and the CI registry
/// round-trip: serves files under `root` with `Content-Length`, 404 for
/// anything missing or escaping the root. Blocks the calling thread; one
/// thread per connection. Prints `fileserver on ADDR` for port discovery.
pub fn serve_dir(listener: std::net::TcpListener, root: PathBuf) -> std::io::Result<()> {
    let addr = listener.local_addr()?;
    println!("fileserver on {addr}");
    for stream in listener.incoming() {
        let Ok(stream) = stream else { continue };
        let root = root.clone();
        // A failed spawn drops the stream (closing it) and keeps accepting.
        if let Err(e) = std::thread::Builder::new()
            .name("ramiel-fileserver-conn".into())
            .spawn(move || serve_file_conn(stream, &root))
        {
            ramiel_obs::warn(
                "RG-SPAWN",
                format!("fileserver dropped a connection: cannot spawn its thread: {e}"),
            );
        }
    }
    Ok(())
}

fn serve_file_conn(mut stream: TcpStream, root: &Path) {
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut request_line = String::new();
    if reader.read_line(&mut request_line).is_err() {
        return;
    }
    // Drain headers so well-behaved clients aren't reset mid-send.
    let mut line = String::new();
    while reader.read_line(&mut line).is_ok() && line.trim() != "" {
        line.clear();
    }
    let path = request_line.split_whitespace().nth(1).unwrap_or("/");
    let rel = path.trim_start_matches('/');
    let safe = !rel.split('/').any(|seg| seg == "..") && !rel.is_empty();
    let body = if safe {
        std::fs::read(root.join(rel)).ok()
    } else {
        None
    };
    let response = match body {
        Some(data) => {
            let mut r = format!(
                "HTTP/1.0 200 OK\r\nContent-Length: {}\r\nContent-Type: application/octet-stream\r\n\r\n",
                data.len()
            )
            .into_bytes();
            r.extend_from_slice(&data);
            r
        }
        None => b"HTTP/1.0 404 Not Found\r\nContent-Length: 0\r\n\r\n".to_vec(),
    };
    let _ = stream.write_all(&response);
    let _ = stream.flush();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// Serve one connection with `response`, after draining the request.
    fn one_shot(response: &'static [u8]) -> String {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut line = String::new();
            while reader.read_line(&mut line).is_ok_and(|n| n > 0) && line.trim() != "" {
                line.clear();
            }
            let _ = stream.write_all(response);
        });
        format!("http://{addr}/model.onnx")
    }

    #[test]
    fn bodies_past_the_cap_are_refused_whatever_the_header_says() {
        // No Content-Length, and an understated one: both run past the cap.
        for response in [
            &b"HTTP/1.0 200 OK\r\n\r\n0123456789"[..],
            &b"HTTP/1.0 200 OK\r\nContent-Length: 4\r\n\r\n0123456789"[..],
        ] {
            let err = http_get(&one_shot(response), 8).unwrap_err();
            assert_eq!(err.code(), "RG-HTTP");
            assert!(err.to_string().contains("cap"), "{err}");
        }
        let body = http_get(&one_shot(b"HTTP/1.0 200 OK\r\n\r\n01234567"), 8).unwrap();
        assert_eq!(body, b"01234567");
    }
}
