//! The daemon's request path run in-process, with no socket: frame
//! decode, trace parse, model-cache lookup, classify, postprocess,
//! render, corpus put/get and reply encode, each call wrapped in a span.
//!
//! The traced run replays the stream it sent to the daemons through it, to
//! break client-observed latency down by layer. It is not the daemon's
//! code: its replies are rendered with [`crate::reference::render`], so
//! the output checks that count are those on the daemons' replies.

use crate::reference::{render, stored_summary};
use crate::spans::Tracer;
use act_serve::proto::{encode_frame, read_frame};
use act_serve::{ModelCache, ModelSpec, Reply, Request};
use act_store::Corpus;
use std::path::Path;
use std::sync::{Arc, Mutex};

/// Work counts of one handled request, for the per-layer ratios.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    /// Windows flagged by classify (DIAGNOSE).
    pub flagged: usize,
    /// Candidates left after postprocess (DIAGNOSE).
    pub ranked: usize,
    /// Uncompressed and stored bytes (TRACE_PUT).
    pub put_bytes: Option<(u64, u64)>,
    /// Whether the model lookup hit memory (DIAGNOSE).
    pub cache_hit: Option<bool>,
}

/// A model cache over a fresh corpus, like `act serve --corpus DIR`.
pub struct Service {
    cache: ModelCache,
    corpus: Arc<Mutex<Corpus>>,
}

impl Service {
    /// A service over a new corpus at `dir`.
    pub fn new(dir: &Path) -> Result<Service, String> {
        let corpus = Corpus::init(dir).map_err(|e| format!("corpus {}: {e}", dir.display()))?;
        let corpus = Arc::new(Mutex::new(corpus));
        let cache = ModelCache::new(32, None).with_corpus(corpus.clone());
        Ok(Service { cache, corpus })
    }

    /// Train (or fetch) a model, as TRAIN does.
    pub fn train(&self, spec: &ModelSpec, tracer: &Tracer, request: u64) -> Result<(), String> {
        tracer.span(request, 0, "cache.train", |_| {
            self.cache.get_or_train(spec).map(|_| ()).map_err(|e| e.to_string())
        })
    }

    /// Handle one request frame (wire bytes) and return the reply frame's
    /// wire bytes and the request's work counts.
    pub fn handle(&self, wire: &[u8], tracer: &Tracer, request: u64) -> (Vec<u8>, Counts) {
        tracer.span(request, 0, "request", |root| {
            let (id, decoded) = tracer.span(request, root, "proto.decode", |_| {
                let frame = read_frame(wire).expect("generated frame decodes");
                (frame.request_id, Request::from_frame(&frame))
            });
            let mut counts = Counts::default();
            let reply = match decoded {
                Ok(req) => self.dispatch(req, tracer, request, root, &mut counts),
                Err(e) => Reply::Error(format!("bad request: {e}")),
            };
            let bytes = tracer.span(request, root, "proto.encode", |_| {
                let mut buf = Vec::new();
                encode_frame(&mut buf, &reply.to_frame().with_request(id));
                buf
            });
            (bytes, counts)
        })
    }

    fn dispatch(
        &self,
        req: Request,
        tracer: &Tracer,
        request: u64,
        root: u32,
        counts: &mut Counts,
    ) -> Reply {
        match req {
            Request::Diagnose(spec, bytes) => {
                let trace = match tracer
                    .span(request, root, "trace.parse", |_| act_trace::io::trace_from_bytes(&bytes))
                {
                    Ok(t) => t,
                    Err(e) => return Reply::Error(format!("bad trace payload: {e}")),
                };
                let model = match tracer
                    .span(request, root, "cache.lookup", |_| self.cache.get_or_train(&spec))
                {
                    Ok((model, outcome)) => {
                        counts.cache_hit = Some(outcome == act_serve::CacheOutcome::Memory);
                        model
                    }
                    Err(e) => return Reply::Error(e.to_string()),
                };
                let entries = tracer.span(request, root, "classify", |_| {
                    act_core::diagnosis::classify_trace(
                        &model.store,
                        &trace,
                        model.norm_code_len,
                        0.5,
                    )
                });
                let diag = tracer.span(request, root, "postprocess", |_| {
                    act_core::postprocess::postprocess(&entries, &model.correct)
                });
                counts.flagged = entries.len();
                counts.ranked = diag.ranked.len();
                Reply::Diagnosis(
                    tracer.span(request, root, "render", |_| render(&spec.workload, &diag)),
                )
            }
            Request::TracePut { key, workload, trace } => {
                let stored = tracer.span(request, root, "store.put", |_| {
                    let mut c = self.corpus.lock().expect("corpus lock");
                    c.put_trace_bytes(&key, &workload, &trace)
                });
                match stored {
                    Ok(info) => {
                        counts.put_bytes = Some((info.raw_bytes, info.encoded_bytes));
                        Reply::Stored(stored_summary(&key, &info))
                    }
                    Err(e) => Reply::Error(format!("trace put failed: {e}")),
                }
            }
            Request::TraceGet { key } => {
                let got = tracer.span(request, root, "store.get", |_| {
                    self.corpus.lock().expect("corpus lock").get_trace(&key)
                });
                match got {
                    Ok(trace) => {
                        Reply::TraceData(tracer.span(request, root, "trace.render", |_| {
                            act_trace::io::trace_to_bytes(&trace)
                        }))
                    }
                    Err(e) => Reply::Error(format!("trace get failed: {e}")),
                }
            }
            other => Reply::Error(format!("{other:?} is not part of the benchmark traffic")),
        }
    }
}
