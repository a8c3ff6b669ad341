#![warn(missing_docs)]

//! # decoy-fakedata
//!
//! A seeded substitute for the Mockaroo random-data service the paper used
//! to bait its honeypots (§4.2): 200 fabricated user login entries for the
//! fake-data Redis variant, and fake customer records (names, addresses,
//! phone numbers, credit-card numbers) for the high-interaction MongoDB
//! honeypot.
//!
//! Everything is deterministic given the RNG seed, so experiment runs are
//! reproducible end to end.

use decoy_base::Rng;
use std::collections::BTreeMap;

mod corpus;

pub use corpus::{CITIES, FIRST_NAMES, LAST_NAMES, PASSWORD_WORDS, STREET_SUFFIXES};

/// A fabricated login entry (the Redis fake-data bait).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FakeLogin {
    /// Generated username, e.g. `mharris42`.
    pub username: String,
    /// Generated password.
    pub password: String,
}

/// A fabricated customer record (the MongoDB bait).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FakeCustomer {
    /// Full name.
    pub name: String,
    /// Street address.
    pub address: String,
    /// City.
    pub city: String,
    /// Phone number.
    pub phone: String,
    /// Luhn-valid 16-digit credit-card number.
    pub credit_card: String,
    /// Contact e-mail.
    pub email: String,
}

/// Seeded generator for fake identities.
#[derive(Debug)]
pub struct FakeDataGenerator {
    rng: Rng,
}

impl FakeDataGenerator {
    /// A generator for `seed`; identical seeds yield identical data.
    pub fn new(seed: u64) -> Self {
        FakeDataGenerator {
            rng: Rng::seed_from_u64(seed),
        }
    }

    fn pick<'a>(&mut self, items: &'a [&'a str]) -> &'a str {
        items[self.rng.gen_range(0..items.len())]
    }

    /// A first+last name pair.
    pub fn name(&mut self) -> String {
        format!("{} {}", self.pick(FIRST_NAMES), self.pick(LAST_NAMES))
    }

    /// A lowercase username in the common `initial+surname+digits` shape.
    pub fn username(&mut self) -> String {
        let first = self.pick(FIRST_NAMES);
        let last = self.pick(LAST_NAMES);
        let n: u16 = self.rng.gen_range(0..100);
        format!(
            "{}{}{}",
            first.chars().next().unwrap().to_ascii_lowercase(),
            last.to_ascii_lowercase(),
            n
        )
    }

    /// A human-plausible password (word + digits + optional symbol).
    pub fn password(&mut self) -> String {
        let word = self.pick(PASSWORD_WORDS);
        let digits: u16 = self.rng.gen_range(0..10_000);
        let symbol = ["", "!", "@", "#", "$"][self.rng.gen_range(0..5)];
        format!("{word}{digits}{symbol}")
    }

    /// A street address.
    pub fn address(&mut self) -> String {
        let number: u16 = self.rng.gen_range(1..9999);
        let street = self.pick(LAST_NAMES);
        let suffix = self.pick(STREET_SUFFIXES);
        format!("{number} {street} {suffix}")
    }

    /// A phone number in `+1-XXX-XXX-XXXX` shape.
    pub fn phone(&mut self) -> String {
        format!(
            "+1-{:03}-{:03}-{:04}",
            self.rng.gen_range(200..999),
            self.rng.gen_range(200..999),
            self.rng.gen_range(0..10_000)
        )
    }

    /// A Luhn-valid 16-digit card number with a test-range prefix.
    pub fn credit_card(&mut self) -> String {
        let mut digits: Vec<u8> = vec![4]; // "Visa" test prefix
        for _ in 0..14 {
            digits.push(self.rng.gen_range(0..10));
        }
        digits.push(luhn_check_digit(&digits));
        digits.iter().map(|d| (b'0' + d) as char).collect()
    }

    /// An e-mail derived from a username.
    pub fn email(&mut self) -> String {
        let user = self.username();
        let domain = ["example.com", "example.org", "mail.example.net"][self.rng.gen_range(0..3)];
        format!("{user}@{domain}")
    }

    /// One fabricated login entry.
    pub fn login(&mut self) -> FakeLogin {
        FakeLogin {
            username: self.username(),
            password: self.password(),
        }
    }

    /// The paper's bait: `count` login entries (the experiment used 200).
    pub fn logins(&mut self, count: usize) -> Vec<FakeLogin> {
        (0..count).map(|_| self.login()).collect()
    }

    /// One fabricated customer record.
    pub fn customer(&mut self) -> FakeCustomer {
        FakeCustomer {
            name: self.name(),
            address: self.address(),
            city: self.pick(CITIES).to_string(),
            phone: self.phone(),
            credit_card: self.credit_card(),
            email: self.email(),
        }
    }

    /// `count` customer records.
    pub fn customers(&mut self, count: usize) -> Vec<FakeCustomer> {
        (0..count).map(|_| self.customer()).collect()
    }
}

/// Number of login entries the paper loaded into the fake-data Redis
/// variant (§4.2).
pub const REDIS_FAKE_ENTRIES: usize = 200;

/// The fake-data Redis `(key, value)` entries for an instance seed: what the
/// honeypot loads into its keyspace and what the direct-mode emitter walks.
/// Keys are `user:<username>`. As in the keyspace's `BTreeMap`, a username
/// drawn twice keeps its last password and `KEYS` answers in key order, so
/// direct-mode harvests match network mode byte for byte.
pub fn fake_redis_entries(seed: u64) -> Vec<(String, String)> {
    let map: BTreeMap<String, String> = FakeDataGenerator::new(seed)
        .logins(REDIS_FAKE_ENTRIES)
        .into_iter()
        .map(|l| (format!("user:{}", l.username), l.password))
        .collect();
    map.into_iter().collect()
}

/// Compute the Luhn check digit for `digits` (most significant first).
pub fn luhn_check_digit(digits: &[u8]) -> u8 {
    let mut sum = 0u32;
    // Position counting includes the future check digit at the end.
    for (i, &d) in digits.iter().rev().enumerate() {
        let mut d = d as u32;
        if i % 2 == 0 {
            d *= 2;
            if d > 9 {
                d -= 9;
            }
        }
        sum += d;
    }
    ((10 - (sum % 10)) % 10) as u8
}

/// Validate a number against the Luhn checksum.
pub fn luhn_valid(number: &str) -> bool {
    let digits: Vec<u8> = number
        .chars()
        .filter_map(|c| c.to_digit(10).map(|d| d as u8))
        .collect();
    if digits.len() != number.len() || digits.is_empty() {
        return false;
    }
    let mut sum = 0u32;
    for (i, &d) in digits.iter().rev().enumerate() {
        let mut d = d as u32;
        if i % 2 == 1 {
            d *= 2;
            if d > 9 {
                d -= 9;
            }
        }
        sum += d;
    }
    sum % 10 == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use decoy_base::rng::{for_all, Rng};

    #[test]
    fn determinism_for_same_seed() {
        let mut a = FakeDataGenerator::new(42);
        let mut b = FakeDataGenerator::new(42);
        assert_eq!(a.logins(10), b.logins(10));
        assert_eq!(a.customers(5), b.customers(5));
        let mut c = FakeDataGenerator::new(43);
        assert_ne!(a.logins(10), c.logins(10));
    }

    #[test]
    fn paper_bait_sizes() {
        // §4.2: 200 fabricated user login entries.
        let mut g = FakeDataGenerator::new(1);
        let logins = g.logins(200);
        assert_eq!(logins.len(), 200);
        assert!(logins.iter().all(|l| !l.username.is_empty()));
        assert!(logins.iter().all(|l| !l.password.is_empty()));
    }

    #[test]
    fn credit_cards_are_luhn_valid() {
        let mut g = FakeDataGenerator::new(7);
        for _ in 0..100 {
            let card = g.credit_card();
            assert_eq!(card.len(), 16);
            assert!(card.starts_with('4'));
            assert!(luhn_valid(&card), "{card} fails Luhn");
        }
    }

    #[test]
    fn luhn_known_vectors() {
        assert!(luhn_valid("4539578763621486"));
        assert!(luhn_valid("79927398713"));
        assert!(!luhn_valid("79927398710"));
        assert!(!luhn_valid(""));
        assert!(!luhn_valid("4111x1111111111"));
        // check digit computation matches the classic example
        let digits: Vec<u8> = "7992739871".bytes().map(|b| b - b'0').collect();
        assert_eq!(luhn_check_digit(&digits), 3);
    }

    #[test]
    fn generated_shapes() {
        let mut g = FakeDataGenerator::new(99);
        let c = g.customer();
        assert!(c.name.contains(' '));
        assert!(c.phone.starts_with("+1-"));
        assert!(c.email.contains('@'));
        assert!(c.address.split(' ').count() >= 3);
        let u = g.username();
        assert!(u.chars().next().unwrap().is_ascii_lowercase());
        assert!(u.chars().last().unwrap().is_ascii_digit());
    }

    #[test]
    fn usernames_vary_within_a_run() {
        let mut g = FakeDataGenerator::new(5);
        let names: std::collections::HashSet<String> = (0..50).map(|_| g.username()).collect();
        assert!(names.len() > 30, "expected variety, got {}", names.len());
    }

    #[test]
    fn fake_entries_are_deterministic() {
        assert_eq!(fake_redis_entries(5), fake_redis_entries(5));
        assert_ne!(fake_redis_entries(5), fake_redis_entries(6));
        let n = fake_redis_entries(5).len();
        assert!((190..=REDIS_FAKE_ENTRIES).contains(&n), "{n}");
        assert!(fake_redis_entries(5)[0].0.starts_with("user:"));
        assert!(!fake_redis_entries(5)[0].1.is_empty());
    }

    #[test]
    fn fake_entries_keep_the_last_password_in_key_order() {
        // seed 6 draws three usernames twice
        let logins = FakeDataGenerator::new(6).logins(REDIS_FAKE_ENTRIES);
        let entries = fake_redis_entries(6);
        assert!(
            entries.windows(2).all(|w| w[0].0 < w[1].0),
            "entries are not sorted by key, or a key repeats"
        );
        let (mut overwritten, mut replaced) = (0, 0);
        for (i, login) in logins.iter().enumerate() {
            let key = format!("user:{}", login.username);
            let at = entries
                .binary_search_by(|(k, _)| k.cmp(&key))
                .expect("every username has an entry");
            if logins[i + 1..].iter().any(|l| l.username == login.username) {
                overwritten += 1;
                if entries[at].1 != login.password {
                    replaced += 1;
                }
            } else {
                assert_eq!(entries[at].1, login.password, "{key}");
            }
        }
        assert!(replaced > 0, "no repeated username drew a new password");
        assert_eq!(entries.len() + overwritten, logins.len());
    }

    #[test]
    fn luhn_check_digit_validates() {
        let gen = |rng: &mut Rng| -> Vec<u8> {
            (0..rng.gen_range(1..20))
                .map(|_| rng.gen_range(0..10))
                .collect()
        };
        for_all(0x1c4, 256, gen, |digits| {
            let check = luhn_check_digit(digits);
            let full: String = digits
                .iter()
                .chain(std::iter::once(&check))
                .map(|d| char::from(b'0' + d))
                .collect();
            assert!(luhn_valid(&full), "{full}");
        });
    }
}
