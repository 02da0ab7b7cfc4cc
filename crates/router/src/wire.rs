//! Minimal field scanners for the protocol's JSON reply lines.
//!
//! The router gathers replies produced by [`exactsim_service`]'s own
//! serializers, whose shapes are fixed and flat (one object per line, no
//! nested objects except the `results` array of `{"node","score"}` pairs).
//! Scanning for `"field":` is exact against that grammar, so a full JSON
//! parser — which the offline workspace does not have — is not needed. The
//! scanners are deliberately conservative: anything unexpected returns
//! `None`, which the gather paths surface as an `internal` protocol error
//! rather than a wrong answer.
//!
//! Every scanner reads the *first* `"field":` in the line. `simrank-client`
//! reads `stats` replies with the same scanners, which is why the key order
//! of those replies is part of their contract.
//!
//! Bit-identity note: scores travel as Rust's shortest round-trip `f64`
//! representation ([`exactsim_service::response`]), so `parse::<f64>()` here
//! recovers the exact bits the shard computed — the gathered merge ranks the
//! same values the unsharded server would.

use exactsim::topk::TopKEntry;

/// Everything after `"field":` in `json`, or `None` when absent.
fn after_field<'a>(json: &'a str, field: &str) -> Option<&'a str> {
    let needle = format!("\"{field}\":");
    let start = json.find(&needle)? + needle.len();
    Some(&json[start..])
}

/// The unsigned integer value of the first `"field":123`.
pub fn u64_field(json: &str, field: &str) -> Option<u64> {
    let rest = after_field(json, field)?;
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The float value of the first `"field":1.25` (exponents and signs
/// included).
pub fn f64_field(json: &str, field: &str) -> Option<f64> {
    let rest = after_field(json, field)?;
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The string value of the first `"field":"value"`. Only used for values
/// the protocol never escapes (error codes, staged states, op names).
pub fn str_field<'a>(json: &'a str, field: &str) -> Option<&'a str> {
    let rest = after_field(json, field)?.strip_prefix('"')?;
    rest.split('"').next()
}

/// The machine-readable code of an `{"error": ..., "code": ...}` reply, or
/// `None` when the reply is not an error.
pub fn error_code(json: &str) -> Option<&str> {
    if json.contains("\"error\"") {
        str_field(json, "code")
    } else {
        None
    }
}

/// The `results` array of a `topk`/`shardtopk` reply, decoded back into
/// entries the merge can rank.
pub fn results(json: &str) -> Option<Vec<TopKEntry>> {
    let rest = after_field(json, "results")?.strip_prefix('[')?;
    let body = &rest[..rest.find(']')?];
    let mut entries = Vec::new();
    for obj in body.split('{').skip(1) {
        let node_rest = obj.strip_prefix("\"node\":")?;
        let comma = node_rest.find(',')?;
        let node: u32 = node_rest[..comma].parse().ok()?;
        let score_rest = node_rest[comma + 1..].strip_prefix("\"score\":")?;
        let end = score_rest.find(['}', ','])?;
        let score: f64 = score_rest[..end].parse().ok()?;
        entries.push(TopKEntry { node, score });
    }
    Some(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scans_integer_and_string_fields() {
        let json = "{\"epoch\":42,\"op\":\"commit\",\"advanced\":true,\"qps\":-1.5e3}";
        assert_eq!(u64_field(json, "epoch"), Some(42));
        assert_eq!(str_field(json, "op"), Some("commit"));
        assert_eq!(f64_field(json, "qps"), Some(-1500.0));
        assert_eq!(f64_field(json, "epoch"), Some(42.0));
        assert_eq!(u64_field(json, "missing"), None);
        assert_eq!(str_field(json, "missing"), None);
        assert_eq!(f64_field(json, "missing"), None);
    }

    #[test]
    fn error_code_only_fires_on_error_replies() {
        let err = "{\"error\":\"down\",\"code\":\"shard_unavailable\"}";
        assert_eq!(error_code(err), Some("shard_unavailable"));
        let ok = "{\"epoch\":3,\"code_like\":\"x\"}";
        assert_eq!(error_code(ok), None);
    }

    #[test]
    fn results_round_trip_exactly() {
        // The score string is what the service serializer emits (shortest
        // round-trip repr) — parsing must recover the identical bits.
        let score = 0.1f64 + 0.2f64;
        let json = format!(
            "{{\"epoch\":1,\"results\":[{{\"node\":7,\"score\":{score}}},{{\"node\":9,\"score\":0.5}}]}}"
        );
        let entries = results(&json).unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].node, 7);
        assert_eq!(entries[0].score.to_bits(), score.to_bits());
        assert_eq!(entries[1].node, 9);
    }

    #[test]
    fn empty_results_and_garbage_are_handled() {
        assert_eq!(results("{\"results\":[]}"), Some(vec![]));
        assert_eq!(results("{\"results\":[{\"bogus\":1}]}"), None);
        assert_eq!(results("{\"nothing\":true}"), None);
    }
}
