//! Field extraction from the server's one-line JSON replies (the router's
//! own reply scanner is private to its crate). The protocol's replies are
//! flat, hand-rendered objects, so a scan for `"field":` suffices.

use exactsim::topk::TopKEntry;

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

/// The string value of the first `"field":"value"` (unescaped values only).
pub fn str_field<'a>(json: &'a str, field: &str) -> Option<&'a str> {
    let rest = after_field(json, field)?.strip_prefix('"')?;
    rest.split('"').next()
}

/// The `code` of an `{"error": ..., "code": ...}` reply.
pub fn error_code(json: &str) -> Option<&str> {
    if json.contains("\"error\"") {
        str_field(json, "code")
    } else {
        None
    }
}

/// The `results` array of a `topk` reply.
pub fn results(json: &str) -> Option<Vec<TopKEntry>> {
    let rest = after_field(json, "results")?.strip_prefix('[')?;
    let body = &rest[..rest.find(']')?];
    let mut entries = Vec::new();
    for obj in body.split('{').skip(1) {
        let node_rest = obj.strip_prefix("\"node\":")?;
        let comma = node_rest.find(',')?;
        let node = node_rest[..comma].parse().ok()?;
        let score_rest = node_rest[comma + 1..].strip_prefix("\"score\":")?;
        let end = score_rest.find(['}', ','])?;
        let score = score_rest[..end].parse().ok()?;
        entries.push(TopKEntry { node, score });
    }
    Some(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_fields_codes_and_results() {
        let reply = "{\"algorithm\":\"exactsim\",\"epoch\":3,\"source\":5,\"k\":2,\"query_time_us\":91,\"results\":[{\"node\":7,\"score\":0.25},{\"node\":1,\"score\":1e-5}]}";
        assert_eq!(u64_field(reply, "epoch"), Some(3));
        assert_eq!(str_field(reply, "algorithm"), Some("exactsim"));
        assert_eq!(error_code(reply), None);
        let r = results(reply).unwrap();
        assert_eq!(
            (r[0].node, r[0].score, r[1].node, r[1].score),
            (7, 0.25, 1, 1e-5)
        );
        let err = "{\"error\":\"nope\",\"code\":\"bad_request\"}";
        assert_eq!(error_code(err), Some("bad_request"));
    }
}
