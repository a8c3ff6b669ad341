//! The machine each deployed honeypot runs: the one (level, dbms) match,
//! its fake-data seeding and the capability-coherence gate. decoy-fleet's
//! listeners and the in-memory transport ([`crate::driver::Memory`]) both
//! take their machine from [`visit`].

use crate::catalog::{Family, VersionProfile};
use crate::couch_med::CouchHoneypot;
use crate::elastic::ElasticPot;
use crate::low::{LowMssql, LowMySql, LowPostgres, LowRedis};
use crate::mongo_high::MongoHoneypot;
use crate::mysql_med::MySqlHoneypot;
use crate::pg_med::StickyElephant;
use crate::redis_med::RedisHoneypot;
use crate::session::{Frame, Reply, Session};
use decoy_store::{ConfigVariant, Dbms, HoneypotId, InteractionLevel};
use std::io;

/// Number of fake customer records loaded into the MongoDB and CouchDB
/// honeypots.
const MONGO_FAKE_CUSTOMERS: usize = 200;

/// Receives the session machine a honeypot runs; see [`visit`]. The
/// machine's type differs per honeypot, so the receiver is generic over it.
pub trait Visitor {
    /// What the visit produces.
    type Output;

    /// Take the machine in its initial state: each connection runs a clone
    /// of it.
    fn machine<S>(self, machine: S) -> Self::Output
    where
        S: Session + Clone + Send + Sync + 'static,
        S::Codec: Send,
        Frame<S>: Send,
        Reply<S>: Send + Sync;
}

/// Build the machine honeypot `id` runs, its fake data drawn from `seed`,
/// and hand it to `visitor`. The same `seed` bakes the same data, so a
/// rebound listener and a direct replay see one bait set.
///
/// An incoherent version profile (a Mongo 4.4 banner with the wrong
/// wire-version ceiling, say) is exactly what fingerprinting scanners
/// cross-reference, so it is an [`io::ErrorKind::InvalidData`] error; a
/// (level, dbms) pair the deployment has no honeypot for is
/// [`io::ErrorKind::Unsupported`].
pub fn visit<V: Visitor>(id: HoneypotId, seed: u64, visitor: V) -> io::Result<V::Output> {
    use InteractionLevel::*;
    if let Some(family) = catalog_family(id.dbms) {
        VersionProfile::of(family)
            .validate()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    }
    let config = id.config;
    Ok(match (id.level, id.dbms) {
        (Low, Dbms::MySql) => visitor.machine(LowMySql),
        (Low, Dbms::Postgres) => visitor.machine(LowPostgres::default()),
        (Low, Dbms::Redis) => visitor.machine(LowRedis),
        (Low, Dbms::Mssql) => visitor.machine(LowMssql),
        (Medium, Dbms::Redis) if config == ConfigVariant::FakeData => visitor.machine(
            RedisHoneypot::with_fake_data(decoy_fakedata::fake_redis_entries(seed)),
        ),
        (Medium, Dbms::Redis) => visitor.machine(RedisHoneypot::default()),
        (Medium, Dbms::MySql) => visitor.machine(MySqlHoneypot::default()),
        (Medium, Dbms::Postgres) => {
            visitor.machine(StickyElephant::new(config != ConfigVariant::LoginDisabled))
        }
        (Medium, Dbms::CouchDb) => visitor.machine(CouchHoneypot::with_fake_customers(
            seed,
            MONGO_FAKE_CUSTOMERS,
        )),
        (Medium, Dbms::Elastic) => visitor.machine(ElasticPot::default()),
        (High, Dbms::MongoDb) => visitor.machine(MongoHoneypot::with_fake_customers(
            seed,
            MONGO_FAKE_CUSTOMERS,
        )),
        (level, dbms) => {
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                format!("no {level:?}-interaction honeypot for {dbms:?} in the deployment"),
            ))
        }
    })
}

/// The catalog family whose version profile a deployment of `dbms` must
/// satisfy (MSSQL is low-interaction-only and carries no profile).
fn catalog_family(dbms: Dbms) -> Option<Family> {
    match dbms {
        Dbms::MySql => Some(Family::MySql),
        Dbms::Postgres => Some(Family::Postgres),
        Dbms::MongoDb => Some(Family::MongoDb),
        Dbms::Redis => Some(Family::Redis),
        Dbms::Elastic => Some(Family::Elastic),
        Dbms::CouchDb => Some(Family::CouchDb),
        Dbms::Mssql => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{poll_once, Memory};
    use decoy_base::time::Clock;
    use decoy_store::EventStore;
    use decoy_wire::codec::Dial;
    use decoy_wire::mysql::MySqlCodec;
    use decoy_wire::pgwire::{BackendMessage, FrontendMessage, PgClientCodec};
    use decoy_wire::resp::{RespCodec, RespValue};
    use ConfigVariant::*;
    use InteractionLevel::*;

    fn id(dbms: Dbms, level: InteractionLevel, config: ConfigVariant) -> HoneypotId {
        HoneypotId::new(dbms, level, config, 0)
    }

    #[test]
    fn unsupported_combination_errors() {
        let store = EventStore::new();
        let id = id(Dbms::MySql, High, Default);
        let err = Memory::deploy(&store, id, 0, Clock::simulated()).err();
        assert_eq!(err.map(|e| e.kind()), Some(io::ErrorKind::Unsupported));
    }

    #[test]
    fn fake_data_redis_has_200_entries() {
        let store = EventStore::new();
        let id = id(Dbms::Redis, Medium, FakeData);
        let mut redis = Memory::deploy(&store, id, 99, Clock::simulated()).unwrap();
        let dialed = poll_once(redis.dial(RespCodec::client())).flatten();
        let mut conn = dialed.unwrap().unwrap();
        let RespValue::Integer(n) = conn.roundtrip(&RespValue::command(&["DBSIZE"])) else {
            panic!("expected DBSIZE integer");
        };
        // duplicate generated usernames collapse in the keyspace
        assert!(
            (190..=decoy_fakedata::REDIS_FAKE_ENTRIES as i64).contains(&n),
            "{n}"
        );
    }

    /// The secret a connection's greeting carries: the MySQL greeting
    /// (thread id and scramble) or the PostgreSQL cancel key.
    fn secret(honeypot: &mut Memory, dbms: Dbms) -> Vec<u8> {
        if dbms == Dbms::MySql {
            let dialed = poll_once(honeypot.dial(MySqlCodec)).flatten();
            return dialed.unwrap().unwrap().recv().payload.to_vec();
        }
        let dialed = poll_once(honeypot.dial(PgClientCodec::new())).flatten();
        let mut pg = dialed.unwrap().unwrap();
        pg.roundtrip(&FrontendMessage::Startup {
            params: vec![("user".into(), "postgres".into())],
        });
        pg.send(&FrontendMessage::Password("postgres".into()));
        loop {
            if let BackendMessage::BackendKeyData { pid, secret } = pg.recv() {
                return [pid.to_le_bytes(), secret.to_le_bytes()].concat();
            }
        }
    }

    #[test]
    fn greeting_secrets_are_drawn_per_connection() {
        let src = "198.51.100.7".parse().unwrap();
        // two connections from one source to a fresh deployment
        let connect_twice = |id: HoneypotId| {
            let store = EventStore::new();
            let mut honeypot = Memory::deploy(&store, id, 3, Clock::simulated()).unwrap();
            honeypot.with_source(src);
            [0; 2].map(|_| secret(&mut honeypot, id.dbms))
        };
        for id in [
            id(Dbms::MySql, Low, MultiService),
            id(Dbms::MySql, Medium, Default),
            id(Dbms::Postgres, Medium, Default),
        ] {
            let [first, second] = connect_twice(id);
            assert_ne!(first, second, "{id}");
            assert_eq!(connect_twice(id), [first, second], "{id}");
        }
    }
}
