//! A Redis-like keyspace.
//!
//! Backs the medium-interaction Redis honeypot: real `SET`/`GET`/`DEL`/
//! `KEYS`/`TYPE` semantics (RedisHoneyPot answers 14 operations — §4.1), a
//! `CONFIG` table that the P2PInfect and SSH-backdoor campaigns mutate
//! (Listing 1 rewrites `dir`/`dbfilename`), and replication state for
//! `SLAVEOF`. The fake-data variant preloads Mockaroo-style login entries.

use decoy_base::sync::RwLock;
use std::collections::BTreeMap;

/// A stored value. Only strings are needed by the observed traffic, but the
/// type is an enum so `TYPE` answers faithfully if richer values are added.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvValue {
    /// A Redis string (binary-safe).
    Str(Vec<u8>),
    /// A Redis hash.
    Hash(BTreeMap<String, Vec<u8>>),
    /// A Redis list.
    List(Vec<Vec<u8>>),
}

impl KvValue {
    /// The `TYPE` command's answer for this value.
    pub fn type_name(&self) -> &'static str {
        match self {
            KvValue::Str(_) => "string",
            KvValue::Hash(_) => "hash",
            KvValue::List(_) => "list",
        }
    }
}

/// Replication state set by `SLAVEOF`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum ReplicationRole {
    /// Acting as master (`SLAVEOF NO ONE` or initial state).
    #[default]
    Master,
    /// Replicating from `host:port` — the exploitation pivot of the
    /// rogue-server technique in Listing 1.
    SlaveOf {
        /// Master host as given.
        host: String,
        /// Master port as given.
        port: u16,
    },
}

/// The keyspace. Interior mutability so one instance can be shared by the
/// honeypot session tasks.
#[derive(Debug, Default)]
pub struct KvStore {
    inner: RwLock<KvInner>,
}

#[derive(Debug)]
struct KvInner {
    data: BTreeMap<String, KvValue>,
    config: BTreeMap<String, String>,
    role: ReplicationRole,
    loaded_modules: Vec<String>,
    dirty_since_save: bool,
}

impl Default for KvInner {
    fn default() -> Self {
        let mut config = BTreeMap::new();
        // The defaults the P2PInfect script reads back and restores.
        config.insert("dir".to_string(), "/var/lib/redis".to_string());
        config.insert("dbfilename".to_string(), "dump.rdb".to_string());
        config.insert("rdbcompression".to_string(), "yes".to_string());
        config.insert("save".to_string(), "3600 1 300 100 60 10000".to_string());
        KvInner {
            data: BTreeMap::new(),
            config,
            role: ReplicationRole::Master,
            loaded_modules: Vec::new(),
            dirty_since_save: false,
        }
    }
}

/// Glob matching with `*` (any run of bytes, the empty run included) and
/// `?` (any one byte); every other pattern byte matches itself. This is
/// what `KEYS` and `CONFIG GET` need.
///
/// Both serve attacker-chosen patterns, and `KEYS` runs this over every key
/// under the keyspace's read lock, so the work is bounded: one pass that,
/// on a mismatch, retries only from the last `*` seen, one key byte
/// further on. Each retry moves that restart point right, so the work is
/// at most pattern length × key length.
pub fn glob_match(pattern: &str, text: &str) -> bool {
    let (pattern, text) = (pattern.as_bytes(), text.as_bytes());
    let (mut p, mut t) = (0, 0);
    // the pattern position after the last `*` and the key position it
    // has been tried against
    let mut restart: Option<(usize, usize)> = None;
    while let Some(&byte) = text.get(t) {
        match pattern.get(p) {
            Some(b'*') => {
                p += 1;
                restart = Some((p, t));
            }
            Some(&want) if want == b'?' || want == byte => {
                p += 1;
                t += 1;
            }
            _ => match restart {
                Some((star_p, star_t)) => {
                    p = star_p;
                    t = star_t + 1;
                    restart = Some((star_p, t));
                }
                None => return false,
            },
        }
    }
    pattern.iter().skip(p).all(|&b| b == b'*')
}

impl KvStore {
    /// An empty store with default config.
    pub fn new() -> Self {
        KvStore::default()
    }

    /// A store preloaded with `(key, value)` string pairs — the fake-data
    /// configuration of §4.2 (200 Mockaroo user/password entries).
    pub fn with_entries(entries: impl IntoIterator<Item = (String, String)>) -> Self {
        let store = KvStore::new();
        {
            let mut inner = store.inner.write();
            for (k, v) in entries {
                inner.data.insert(k, KvValue::Str(v.into_bytes()));
            }
        }
        store
    }

    /// `SET key value`.
    pub fn set(&self, key: &str, value: Vec<u8>) {
        let mut inner = self.inner.write();
        inner.data.insert(key.to_string(), KvValue::Str(value));
        inner.dirty_since_save = true;
    }

    /// `GET key`.
    pub fn get(&self, key: &str) -> Option<Vec<u8>> {
        match self.inner.read().data.get(key) {
            Some(KvValue::Str(v)) => Some(v.clone()),
            _ => None,
        }
    }

    /// `DEL key...` — returns how many existed.
    pub fn del(&self, keys: &[&str]) -> usize {
        let mut inner = self.inner.write();
        let mut removed = 0;
        for key in keys {
            if inner.data.remove(*key).is_some() {
                removed += 1;
            }
        }
        if removed > 0 {
            inner.dirty_since_save = true;
        }
        removed
    }

    /// `EXISTS key`.
    pub fn exists(&self, key: &str) -> bool {
        self.inner.read().data.contains_key(key)
    }

    /// `KEYS pattern`.
    pub fn keys(&self, pattern: &str) -> Vec<String> {
        self.inner
            .read()
            .data
            .keys()
            .filter(|k| glob_match(pattern, k))
            .cloned()
            .collect()
    }

    /// `TYPE key` — `none` when absent.
    pub fn type_of(&self, key: &str) -> &'static str {
        self.inner
            .read()
            .data
            .get(key)
            .map(|v| v.type_name())
            .unwrap_or("none")
    }

    /// `DBSIZE`.
    pub fn len(&self) -> usize {
        self.inner.read().data.len()
    }

    /// True when the keyspace is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `FLUSHDB` / `FLUSHALL`.
    pub fn flush(&self) {
        let mut inner = self.inner.write();
        inner.data.clear();
        inner.dirty_since_save = true;
    }

    /// `CONFIG GET param` (glob patterns supported, like real Redis).
    pub fn config_get(&self, param: &str) -> Vec<(String, String)> {
        self.inner
            .read()
            .config
            .iter()
            .filter(|(k, _)| glob_match(&param.to_ascii_lowercase(), k))
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    /// `CONFIG SET param value`.
    pub fn config_set(&self, param: &str, value: &str) {
        self.inner
            .write()
            .config
            .insert(param.to_ascii_lowercase(), value.to_string());
    }

    /// `SAVE` — the honeypot pretends to persist; clears the dirty flag.
    pub fn save(&self) {
        self.inner.write().dirty_since_save = false;
    }

    /// Whether writes happened since the last `SAVE`.
    pub fn dirty(&self) -> bool {
        self.inner.read().dirty_since_save
    }

    /// `SLAVEOF host port` / `SLAVEOF NO ONE`.
    pub fn set_role(&self, role: ReplicationRole) {
        self.inner.write().role = role;
    }

    /// Current replication role.
    pub fn role(&self) -> ReplicationRole {
        self.inner.read().role.clone()
    }

    /// `HSET key field value` — returns true when the field is new.
    pub fn hset(&self, key: &str, field: &str, value: Vec<u8>) -> bool {
        let mut inner = self.inner.write();
        inner.dirty_since_save = true;
        let entry = inner
            .data
            .entry(key.to_string())
            .or_insert_with(|| KvValue::Hash(BTreeMap::new()));
        match entry {
            KvValue::Hash(map) => map.insert(field.to_string(), value).is_none(),
            // Redis answers WRONGTYPE; the honeypot layer handles that —
            // here we overwrite to a fresh hash like a recovered keyspace.
            other => {
                let mut map = BTreeMap::new();
                map.insert(field.to_string(), value);
                *other = KvValue::Hash(map);
                true
            }
        }
    }

    /// `HGET key field`.
    pub fn hget(&self, key: &str, field: &str) -> Option<Vec<u8>> {
        match self.inner.read().data.get(key) {
            Some(KvValue::Hash(map)) => map.get(field).cloned(),
            _ => None,
        }
    }

    /// `HGETALL key` — field/value pairs in field order.
    pub fn hgetall(&self, key: &str) -> Vec<(String, Vec<u8>)> {
        match self.inner.read().data.get(key) {
            Some(KvValue::Hash(map)) => map.iter().map(|(k, v)| (k.clone(), v.clone())).collect(),
            _ => Vec::new(),
        }
    }

    /// `RPUSH key value...` — returns the new list length.
    pub fn rpush(&self, key: &str, values: Vec<Vec<u8>>) -> usize {
        let mut inner = self.inner.write();
        inner.dirty_since_save = true;
        let entry = inner
            .data
            .entry(key.to_string())
            .or_insert_with(|| KvValue::List(Vec::new()));
        match entry {
            KvValue::List(list) => {
                list.extend(values);
                list.len()
            }
            other => {
                let len = values.len();
                *other = KvValue::List(values);
                len
            }
        }
    }

    /// `LRANGE key start stop` with Redis index semantics (negative counts
    /// from the end; `stop` inclusive).
    pub fn lrange(&self, key: &str, start: i64, stop: i64) -> Vec<Vec<u8>> {
        let inner = self.inner.read();
        let Some(KvValue::List(list)) = inner.data.get(key) else {
            return Vec::new();
        };
        // Redis's rules: a negative index counts back from the end, a start
        // before the head clamps to it, and a stop before the head selects
        // nothing
        let resolve = |i: i64| -> Option<usize> {
            let magnitude = usize::try_from(i.unsigned_abs()).unwrap_or(usize::MAX);
            if i < 0 {
                list.len().checked_sub(magnitude)
            } else {
                Some(magnitude)
            }
        };
        let (start, Some(stop)) = (resolve(start).unwrap_or(0), resolve(stop)) else {
            return Vec::new();
        };
        let end = stop.saturating_add(1).min(list.len());
        list.get(start..end)
            .map(<[Vec<u8>]>::to_vec)
            .unwrap_or_default()
    }

    /// `LLEN key`.
    pub fn llen(&self, key: &str) -> usize {
        match self.inner.read().data.get(key) {
            Some(KvValue::List(list)) => list.len(),
            _ => 0,
        }
    }

    /// `MODULE LOAD path` — records the path; the honeypot never executes
    /// anything (ethics appendix A).
    pub fn module_load(&self, path: &str) {
        self.inner.write().loaded_modules.push(path.to_string());
    }

    /// `MODULE UNLOAD name` — returns whether a module matched.
    pub fn module_unload(&self, name: &str) -> bool {
        let mut inner = self.inner.write();
        let before = inner.loaded_modules.len();
        inner.loaded_modules.retain(|m| !m.contains(name));
        inner.loaded_modules.len() != before
    }

    /// Paths passed to `MODULE LOAD` so far (forensics).
    pub fn loaded_modules(&self) -> Vec<String> {
        self.inner.read().loaded_modules.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decoy_base::rng::{for_all, Rng};

    #[test]
    fn set_get_del_exists() {
        let kv = KvStore::new();
        assert_eq!(kv.get("x"), None);
        kv.set("x", b"hello".to_vec());
        assert_eq!(kv.get("x"), Some(b"hello".to_vec()));
        assert!(kv.exists("x"));
        assert_eq!(kv.del(&["x", "y"]), 1);
        assert!(!kv.exists("x"));
        assert!(kv.is_empty());
    }

    #[test]
    fn keys_glob_patterns() {
        let kv = KvStore::with_entries([
            ("user:1".to_string(), "alice".to_string()),
            ("user:2".to_string(), "bob".to_string()),
            ("session:9".to_string(), "tok".to_string()),
        ]);
        let mut users = kv.keys("user:*");
        users.sort();
        assert_eq!(users, vec!["user:1", "user:2"]);
        assert_eq!(kv.keys("*").len(), 3);
        assert_eq!(kv.keys("user:?").len(), 2);
        assert_eq!(kv.keys("nope*").len(), 0);
    }

    /// The recursive matcher `glob_match` replaced: exponential on
    /// patterns with many stars, and kept only as the oracle.
    fn glob_match_recursive(pattern: &str, text: &str) -> bool {
        fn rec(p: &[u8], t: &[u8]) -> bool {
            match (p.first(), t.first()) {
                (None, None) => true,
                (Some(b'*'), _) => rec(&p[1..], t) || (!t.is_empty() && rec(p, &t[1..])),
                (Some(b'?'), Some(_)) => rec(&p[1..], &t[1..]),
                (Some(a), Some(b)) if a == b => rec(&p[1..], &t[1..]),
                _ => false,
            }
        }
        rec(pattern.as_bytes(), text.as_bytes())
    }

    /// Every string of up to `max` symbols over `alphabet`, shortest first.
    fn words(alphabet: &[char], max: usize) -> Vec<String> {
        let mut all = vec![String::new()];
        let mut last = vec![String::new()];
        for _ in 0..max {
            last = last
                .iter()
                .flat_map(|w| alphabet.iter().map(move |c| format!("{w}{c}")))
                .collect();
            all.extend(last.iter().cloned());
        }
        all
    }

    #[test]
    fn glob_matcher_agrees_with_the_recursive_oracle() {
        let keys = words(&['a', 'b'], 6);
        let patterns = words(&['a', 'b', '*', '?'], 6);
        assert_eq!((patterns.len(), keys.len()), (5461, 127));
        for pattern in &patterns {
            for key in &keys {
                assert_eq!(
                    glob_match(pattern, key),
                    glob_match_recursive(pattern, key),
                    "pattern {pattern:?} against key {key:?}"
                );
            }
        }
    }

    #[test]
    fn glob_matcher_is_bounded_on_crafted_patterns() {
        // the recursive matcher took over a second on this pair
        let pattern = format!("{}b", "*a".repeat(12));
        let key = "a".repeat(30);
        assert_eq!((pattern.len(), key.len()), (25, 30));
        let kv = KvStore::with_entries([(key.clone(), "v".to_string())]);
        let start = std::time::Instant::now();
        assert!(!glob_match(&pattern, &key));
        assert!(kv.keys(&pattern).is_empty());
        assert!(glob_match(&pattern.replace('b', "a"), &key));
        let elapsed = start.elapsed();
        assert!(
            elapsed < std::time::Duration::from_millis(100),
            "crafted KEYS pattern took {elapsed:?}"
        );
    }

    #[test]
    fn glob_matcher_edge_cases() {
        assert!(glob_match("*", ""));
        assert!(glob_match("*", "anything"));
        assert!(glob_match("a*b", "ab"));
        assert!(glob_match("a*b", "aXXb"));
        assert!(!glob_match("a*b", "aXXc"));
        assert!(glob_match("??", "ab"));
        assert!(!glob_match("??", "a"));
        assert!(glob_match("", ""));
        assert!(!glob_match("", "a"));
    }

    #[test]
    fn type_command_semantics() {
        let kv = KvStore::new();
        kv.set("s", b"v".to_vec());
        assert_eq!(kv.type_of("s"), "string");
        assert_eq!(kv.type_of("missing"), "none");
        assert_eq!(KvValue::Hash(BTreeMap::new()).type_name(), "hash");
        assert_eq!(KvValue::List(vec![]).type_name(), "list");
    }

    #[test]
    fn flush_clears_everything() {
        let kv = KvStore::with_entries([("a".to_string(), "1".to_string())]);
        assert_eq!(kv.len(), 1);
        kv.flush();
        assert!(kv.is_empty());
    }

    #[test]
    fn config_defaults_match_p2pinfect_expectations() {
        // Listing 1 restores dir=/var/lib/redis (well, the script restores
        // prior values); defaults must exist for CONFIG GET to answer.
        let kv = KvStore::new();
        assert_eq!(
            kv.config_get("dir"),
            vec![("dir".to_string(), "/var/lib/redis".to_string())]
        );
        kv.config_set("dir", "/root/.ssh/");
        kv.config_set("dbfilename", "authorized_keys");
        assert_eq!(
            kv.config_get("dbfilename"),
            vec![("dbfilename".to_string(), "authorized_keys".to_string())]
        );
        // glob form, like CONFIG GET db*
        assert_eq!(kv.config_get("db*").len(), 1);
        assert!(kv.config_get("*").len() >= 4);
    }

    #[test]
    fn save_and_dirty_tracking() {
        let kv = KvStore::new();
        assert!(!kv.dirty());
        kv.set("x", b"1".to_vec());
        assert!(kv.dirty());
        kv.save();
        assert!(!kv.dirty());
    }

    #[test]
    fn slaveof_role_transitions() {
        let kv = KvStore::new();
        assert_eq!(kv.role(), ReplicationRole::Master);
        kv.set_role(ReplicationRole::SlaveOf {
            host: "203.0.113.9".into(),
            port: 8886,
        });
        assert!(matches!(kv.role(), ReplicationRole::SlaveOf { .. }));
        kv.set_role(ReplicationRole::Master);
        assert_eq!(kv.role(), ReplicationRole::Master);
    }

    #[test]
    fn hash_operations() {
        let kv = KvStore::new();
        assert!(kv.hset("h", "user", b"alice".to_vec()));
        assert!(!kv.hset("h", "user", b"bob".to_vec())); // overwrite
        assert!(kv.hset("h", "pass", b"pw".to_vec()));
        assert_eq!(kv.hget("h", "user"), Some(b"bob".to_vec()));
        assert_eq!(kv.hget("h", "missing"), None);
        assert_eq!(kv.hget("missing", "x"), None);
        let all = kv.hgetall("h");
        assert_eq!(all.len(), 2);
        assert_eq!(kv.type_of("h"), "hash");
        // hgetall on a string key is empty, not a panic
        kv.set("s", b"v".to_vec());
        assert!(kv.hgetall("s").is_empty());
    }

    #[test]
    fn list_operations_with_redis_index_semantics() {
        let kv = KvStore::new();
        assert_eq!(
            kv.rpush("l", vec![b"a".to_vec(), b"b".to_vec(), b"c".to_vec()]),
            3
        );
        assert_eq!(kv.rpush("l", vec![b"d".to_vec()]), 4);
        assert_eq!(kv.llen("l"), 4);
        assert_eq!(kv.type_of("l"), "list");
        assert_eq!(
            kv.lrange("l", 0, -1),
            vec![b"a".to_vec(), b"b".to_vec(), b"c".to_vec(), b"d".to_vec()]
        );
        assert_eq!(kv.lrange("l", 1, 2), vec![b"b".to_vec(), b"c".to_vec()]);
        assert_eq!(kv.lrange("l", -2, -1), vec![b"c".to_vec(), b"d".to_vec()]);
        assert!(kv.lrange("l", 3, 1).is_empty());
        assert!(kv.lrange("missing", 0, -1).is_empty());
        assert_eq!(kv.llen("missing"), 0);
    }

    #[test]
    fn module_load_unload_forensics() {
        let kv = KvStore::new();
        kv.module_load("/tmp/exp.so");
        assert_eq!(kv.loaded_modules(), vec!["/tmp/exp.so"]);
        assert!(!kv.module_unload("system"));
        assert!(kv.module_unload("exp.so"));
        assert!(kv.loaded_modules().is_empty());
    }

    #[test]
    fn glob_star_matches_everything() {
        const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789:";
        let gen = |rng: &mut Rng| -> String {
            let len = rng.gen_range(0..=24);
            (0..len)
                .map(|_| char::from(ALPHABET[rng.gen_range(0..ALPHABET.len())]))
                .collect()
        };
        for_all(0x6106, 256, gen, |text| {
            assert!(glob_match("*", text));
            assert!(glob_match(text, text), "exact match");
        });
    }

    #[test]
    fn lrange_agrees_with_slice_oracle() {
        let gen = |rng: &mut Rng| {
            let values: Vec<Vec<u8>> = (0..rng.gen_range(0..12))
                .map(|_| {
                    (0..rng.gen_range(0..4))
                        .map(|_| rng.gen_range(0..=u8::MAX))
                        .collect()
                })
                .collect();
            // the extremes and ±len beside the small indices
            let len = values.len() as i64;
            let index = |rng: &mut Rng| match rng.gen_range(0..8) {
                0 => i64::MIN,
                1 => i64::MAX,
                2 => len,
                3 => -len,
                _ => rng.gen_range(-15i64..15),
            };
            let (start, stop) = (index(rng), index(rng));
            (values, start, stop)
        };
        for_all(0x17a6e, 256, gen, |(values, start, stop)| {
            let kv = KvStore::new();
            if !values.is_empty() {
                kv.rpush("l", values.clone());
            }
            let got = kv.lrange("l", *start, *stop);
            // oracle: Redis semantics, element by element in i128 (a
            // negative index counts from the end, both bounds inclusive)
            let len = values.len() as i128;
            let norm = |i: i64| i128::from(i) + if i < 0 { len } else { 0 };
            let (lo, hi) = (norm(*start), norm(*stop));
            let expected: Vec<Vec<u8>> = (0..)
                .zip(values)
                .filter(|(j, _)| (lo..=hi).contains(j))
                .map(|(_, v)| v.clone())
                .collect();
            assert_eq!(got, expected);
        });
    }
}
