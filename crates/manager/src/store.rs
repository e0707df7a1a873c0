//! The consumable key store: where distilled secret key accumulates per link
//! and applications draw it down.
//!
//! The API follows the shape of ETSI GS QKD 014: a consumer asks for the
//! [`KeyStatus`] of a link and then calls [`KeyStore::get_key`] for an exact
//! number of bits, receiving key material tagged with a [`KeyId`]. Delivery is
//! strictly draining — every deposited bit is delivered at most once, in
//! deposit order — and the ledger (`deposited = delivered + available`) holds
//! at every point, so the store can be reconciled bit-for-bit against the
//! per-link [`qkd_core::SessionSummary`] ledgers.
//!
//! The 014 master/slave flow is served by reservations: the master side
//! calls [`KeyStore::reserve_keys`], which drains bits exactly like
//! `get_key` *and* parks a copy of each key under its [`KeyId`]; the slave
//! side retrieves that copy exactly once via [`KeyStore::get_key_by_id`].
//! The parked copy is the other half of one delivery, not a second one, so
//! the ledger is unaffected by pickups.
//!
//! Reservations may carry a **TTL**: a reservation the slave has not
//! collected by its deadline is reclaimed by
//! [`KeyStore::expire_reservations`] (the delivery tier runs it from a
//! periodic sweeper). Reclaiming un-delivers the parked bits — they re-enter
//! the available pool at the tail of the link's stream and the delivery
//! ledger is rolled back by the same amount, so
//! `deposited = delivered + available` keeps balancing bit-for-bit. An
//! expired ID is gone: a late pickup is answered exactly like a
//! never-reserved one.

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use qkd_journal::{
    CompactionStats, Journal, LinkSnapshot, Record, Replayed, ReservationSnapshot, StoreClock,
    Ticket,
};
use qkd_types::{BitVec, QkdError, Result, SecretBuf, SecretKey};

/// Registry handles for the store-level families. Shared by every store in
/// the process (stores have no identity of their own); per-link attribution
/// rides on the fleet-level families in `manager.rs`. All recording happens
/// *after* the store's `inner` guard is released — handle methods are pure
/// atomics, but keeping the mutex scope free of foreign calls keeps the
/// lock-order lint graph trivially acyclic.
struct StoreObs {
    deposits: qkd_obs::Counter,
    deposited_bits: qkd_obs::Counter,
    keys_delivered: qkd_obs::Counter,
    reservations: qkd_obs::Counter,
    pickups: qkd_obs::Counter,
    expiries: qkd_obs::Counter,
    available_bits: qkd_obs::Gauge,
}

fn store_obs() -> &'static StoreObs {
    static OBS: std::sync::OnceLock<StoreObs> = std::sync::OnceLock::new();
    OBS.get_or_init(|| {
        let obs = qkd_obs::registry();
        StoreObs {
            deposits: obs.counter("qkd_store_deposits_total", &[]),
            deposited_bits: obs.counter("qkd_store_deposited_bits_total", &[]),
            keys_delivered: obs.counter("qkd_store_keys_delivered_total", &[]),
            reservations: obs.counter("qkd_store_reservations_total", &[]),
            pickups: obs.counter("qkd_store_reservation_pickups_total", &[]),
            expiries: obs.counter("qkd_store_reservations_expired_total", &[]),
            available_bits: obs.gauge("qkd_store_available_bits", &[]),
        }
    })
}

/// Identity of one delivered key: the link it was drawn from plus a per-link
/// serial that increments with every successful [`KeyStore::get_key`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct KeyId {
    /// Link the key material was distilled on.
    pub link: usize,
    /// Delivery serial within the link (0 for the first key delivered).
    pub serial: u64,
}

impl std::fmt::Display for KeyId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "link{}/key{}", self.link, self.serial)
    }
}

impl std::str::FromStr for KeyId {
    type Err = QkdError;

    /// Parses the wire form produced by [`KeyId`]'s `Display` impl
    /// (`link<N>/key<M>`), the `key_ID` strings of the delivery API.
    fn from_str(s: &str) -> Result<Self> {
        let parse = || -> Option<KeyId> {
            let rest = s.strip_prefix("link")?;
            let (link, serial) = rest.split_once("/key")?;
            Some(KeyId {
                link: link.parse().ok()?,
                serial: serial.parse().ok()?,
            })
        };
        parse().ok_or_else(|| {
            QkdError::invalid_parameter("key_ID", format!("`{s}` is not of the form linkN/keyM"))
        })
    }
}

/// A key handed to a consumer: exactly the requested number of bits, drained
/// from the link's store in deposit order.
///
/// The bits ride in a [`SecretBuf`]: dropped keys zeroize their storage, and
/// the `Debug` form prints length + fingerprint, never the material. The
/// wire encoding reads the bits explicitly via [`SecretBuf::expose`].
#[derive(Clone, PartialEq)]
pub struct DeliveredKey {
    /// Identity of this delivery.
    pub id: KeyId,
    /// The secret bits (zeroized on drop).
    pub bits: SecretBuf,
    /// Union-bound composable security parameter of the link's session at
    /// delivery time (sum of the epsilons of every block deposited so far).
    pub epsilon: f64,
}

impl std::fmt::Debug for DeliveredKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeliveredKey")
            .field("id", &self.id)
            .field("bits", &self.bits)
            .field("epsilon", &self.epsilon)
            .finish()
    }
}

impl DeliveredKey {
    /// Number of delivered bits.
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// Returns `true` when the key is empty (never produced by `get_key`,
    /// which rejects zero-bit requests).
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }
}

/// Point-in-time accounting of one link's store.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KeyStatus {
    /// Link this status describes.
    pub link: usize,
    /// Bits currently stored and not yet delivered.
    pub available_bits: u64,
    /// Total bits ever deposited by the distillation engine.
    pub deposited_bits: u64,
    /// Total bits ever delivered to consumers.
    pub delivered_bits: u64,
    /// Number of keys delivered (the next delivery's serial).
    pub keys_delivered: u64,
    /// Reserved keys parked for the peer SAE and not yet picked up by ID.
    pub reserved_keys: u64,
    /// Cumulative count of reservations whose TTL expired before pickup and
    /// whose bits were reclaimed into the available pool — the leakage a
    /// slow or dead slave SAE would otherwise cause, made visible.
    pub reservations_expired: u64,
    /// Number of secret-key blocks deposited.
    pub blocks_deposited: u64,
    /// Union-bound epsilon over every deposited block.
    pub epsilon: f64,
}

impl KeyStatus {
    /// The store ledger invariant: every deposited bit is either still
    /// available or was delivered exactly once.
    pub fn balances(&self) -> bool {
        self.deposited_bits == self.available_bits + self.delivered_bits
    }
}

/// One parked reservation: the peer's copy of an already-delivered key,
/// plus the claim the pickup must present.
struct Reservation {
    bits: SecretBuf,
    epsilon: f64,
    /// Opaque claimant tag fixed at reservation time (the delivery API uses
    /// the intended recipient's SAE id). A pickup presenting a different
    /// claim is answered exactly like a non-existent ID, so a foreign
    /// consumer can neither redeem nor probe for the reservation.
    claim: Option<String>,
    /// Deadline after which the sweeper may reclaim the reservation, as an
    /// absolute [`StoreClock`] millisecond (journal-able, so it survives a
    /// restart); `None` parks the key forever (the pre-TTL behaviour).
    expires_at: Option<u64>,
}

impl std::fmt::Debug for Reservation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Reservation")
            .field("bits", &self.bits)
            .field("claim", &self.claim)
            .field("expires_at", &self.expires_at)
            .finish()
    }
}

/// Deposited key not yet delivered: one chunk per deposit, drained from the
/// front. A deposit is a move into the deque and a drained chunk is wiped as
/// it is dropped, so key material is never copied into a growing buffer (a
/// reallocation would leave an unwiped copy in freed heap) and the store lock
/// is held for a pointer push, not a bit-by-bit append.
#[derive(Default)]
struct Shelf {
    chunks: VecDeque<SecretBuf>,
    /// Bits of the front chunk already taken.
    cursor: usize,
    /// Bits on the shelf (chunk lengths minus `cursor`).
    len: usize,
}

impl Shelf {
    fn len(&self) -> usize {
        self.len
    }

    fn push(&mut self, bits: SecretBuf) {
        if !bits.is_empty() {
            self.len += bits.len();
            self.chunks.push_back(bits);
        }
    }

    /// Removes the first `n` bits (all of them if fewer are held).
    fn take(&mut self, n: usize) -> SecretBuf {
        let n = n.min(self.len);
        // Sized up front so appending never reallocates key material.
        let mut out = SecretBuf::from_bits(BitVec::with_capacity(n));
        while out.len() < n {
            let Some(front) = self.chunks.front() else {
                break;
            };
            let end = front.len().min(self.cursor + n - out.len());
            let piece = SecretBuf::from_bits(front.slice(self.cursor, end));
            out.expose_mut().extend_from(&piece);
            if end == front.len() {
                self.chunks.pop_front();
                self.cursor = 0;
            } else {
                self.cursor = end;
            }
        }
        self.len -= out.len();
        out
    }

    /// A copy of everything on the shelf, in delivery order (the journal
    /// snapshot's pool).
    fn rest(&self) -> SecretBuf {
        let mut out = SecretBuf::from_bits(BitVec::with_capacity(self.len));
        let mut skip = self.cursor;
        for chunk in &self.chunks {
            let piece = SecretBuf::from_bits(chunk.slice(skip, chunk.len()));
            out.expose_mut().extend_from(&piece);
            skip = 0;
        }
        out
    }
}

/// Per-link storage: the shelf of deposited key, plus the reserved keys
/// parked for pickup-by-ID by the peer SAE.
#[derive(Default)]
struct LinkStore {
    shelf: Shelf,
    deposited_bits: u64,
    delivered_bits: u64,
    keys_delivered: u64,
    blocks_deposited: u64,
    reservations_expired: u64,
    epsilon: f64,
    /// Bits of `deposited_bits` that were restored by journal replay rather
    /// than deposited by this process's engines. The fleet reconciler
    /// subtracts this baseline before comparing against the (fresh) session
    /// ledgers.
    recovered_bits: u64,
    /// Reserved deliveries awaiting the peer SAE, keyed by serial. Each entry
    /// is the peer's copy of bits already accounted as delivered — retrieval
    /// removes it, so the same key ID can never be picked up twice.
    parked: BTreeMap<u64, Reservation>,
}

impl std::fmt::Debug for LinkStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The pool is key material: print its accounting, never its bits.
        f.debug_struct("LinkStore")
            .field("available_bits", &self.shelf.len())
            .field("deposited_bits", &self.deposited_bits)
            .field("delivered_bits", &self.delivered_bits)
            .field("keys_delivered", &self.keys_delivered)
            .field("reserved_keys", &self.parked.len())
            .finish_non_exhaustive()
    }
}

impl LinkStore {
    fn available(&self) -> usize {
        self.shelf.len()
    }

    /// Drains `n_bits` from the front (caller has checked availability),
    /// advancing the delivery ledger and serial atomically with the read.
    fn drain(&mut self, link: usize, n_bits: usize) -> DeliveredKey {
        let bits = self.shelf.take(n_bits);
        self.delivered_bits += n_bits as u64;
        let serial = self.keys_delivered;
        self.keys_delivered += 1;
        DeliveredKey {
            id: KeyId { link, serial },
            bits,
            epsilon: self.epsilon,
        }
    }
}

/// An SAE budget restored from the journal, handed to the delivery tier so
/// consumers cannot reset their rate limits by crashing the manager.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveredBudget {
    /// The SAE the budget belongs to.
    pub sae: String,
    /// Lifetime requests consumed.
    pub requests_used: u64,
    /// Lifetime key bits consumed.
    pub key_bits_used: u64,
}

/// Thread-safe multi-link key store (see the module docs for the contract).
///
/// Stores are created and filled by the
/// [`LinkManager`](crate::manager::LinkManager); consumers only read
/// ([`KeyStore::status`]) and drain ([`KeyStore::get_key`]).
///
/// # Durability
///
/// A store opened through [`LinkManager::open_durable`] carries a
/// [`Journal`]: every mutation **submits** its record while the store lock
/// is held (so log order equals mutation order) and **commits** it — write
/// plus group-commit fsync — after the lock is released, *before* the
/// mutation is acknowledged to the caller. An in-memory store (the
/// default) has no journal and skips both steps.
#[derive(Debug, Default)]
pub struct KeyStore {
    inner: Mutex<BTreeMap<usize, LinkStore>>,
    /// Write-ahead log; `None` for an in-memory store.
    journal: Option<Arc<Journal>>,
    /// The store's monotonic timeline; TTL deadlines are absolute
    /// milliseconds on it.
    clock: StoreClock,
}

impl KeyStore {
    /// The store's monotonic clock (shared timeline for TTL deadlines).
    pub fn clock(&self) -> &StoreClock {
        &self.clock
    }

    /// The write-ahead journal, if this store is durable. The delivery tier
    /// shares it to journal SAE budgets into the same log.
    pub fn journal(&self) -> Option<Arc<Journal>> {
        self.journal.as_ref().map(Arc::clone)
    }

    /// Bits of a link's `deposited_bits` that were restored by replay (0
    /// for unknown links and in-memory stores).
    pub fn recovered_bits(&self, link: usize) -> u64 {
        self.inner
            .lock()
            .get(&link)
            .map_or(0, |store| store.recovered_bits)
    }

    /// Stages `record` in the journal (inside the store lock — order!).
    /// No-op for in-memory stores. Called *before* the mutation it
    /// describes so a poisoned journal blocks the mutation entirely.
    fn submit_record(&self, make: impl FnOnce() -> Record) -> Result<Option<Ticket>> {
        match &self.journal {
            Some(journal) => Ok(Some(journal.submit(&make())?)),
            None => Ok(None),
        }
    }

    /// Makes a staged record durable (outside the store lock). The
    /// mutation must not be acknowledged if this fails.
    fn commit_record(&self, ticket: Option<Ticket>) -> Result<()> {
        match (&self.journal, ticket) {
            (Some(journal), Some(ticket)) => journal.commit(ticket),
            _ => Ok(()),
        }
    }
    /// Creates an empty link slot so `status` works before the first deposit.
    ///
    /// # Errors
    ///
    /// Returns [`QkdError::JournalError`] when the store is durable and the
    /// journal cannot record the registration.
    pub(crate) fn register(&self, link: usize) -> Result<()> {
        let ticket = {
            let mut inner = self.inner.lock();
            let ticket = self.submit_record(|| Record::Register { link: link as u64 })?;
            inner.entry(link).or_default();
            ticket
        };
        self.commit_record(ticket)
    }

    /// Appends a distilled block's secret bits to a link's store.
    ///
    /// # Errors
    ///
    /// Returns [`QkdError::JournalError`] when the store is durable and the
    /// deposit cannot be made durable; the fleet quarantines the link
    /// rather than distil key the log cannot capture.
    pub(crate) fn deposit(&self, link: usize, key: &SecretKey) -> Result<()> {
        let ticket = {
            let mut inner = self.inner.lock();
            let ticket = self.submit_record(|| Record::Deposit {
                link: link as u64,
                at_ms: self.clock.now_ms(),
                epsilon: key.epsilon,
                bits: key.bits.clone(),
            })?;
            let store = inner.entry(link).or_default();
            store.shelf.push(key.bits.clone());
            store.deposited_bits += key.bits.len() as u64;
            store.blocks_deposited += 1;
            store.epsilon += key.epsilon;
            ticket
        };
        self.commit_record(ticket)?;
        let obs = store_obs();
        obs.deposits.inc();
        obs.deposited_bits.add(key.bits.len() as u64);
        obs.available_bits.add(key.bits.len() as f64);
        Ok(())
    }

    /// Links currently registered, in id order.
    pub fn links(&self) -> Vec<usize> {
        self.inner.lock().keys().copied().collect()
    }

    /// Accounting snapshot of one link.
    ///
    /// # Errors
    ///
    /// Returns [`QkdError::InvalidParameter`] for an unknown link.
    pub fn status(&self, link: usize) -> Result<KeyStatus> {
        let inner = self.inner.lock();
        let store = inner
            .get(&link)
            .ok_or_else(|| QkdError::invalid_parameter("link", format!("unknown link {link}")))?;
        Ok(KeyStatus {
            link,
            available_bits: store.available() as u64,
            deposited_bits: store.deposited_bits,
            delivered_bits: store.delivered_bits,
            keys_delivered: store.keys_delivered,
            reserved_keys: store.parked.len() as u64,
            reservations_expired: store.reservations_expired,
            blocks_deposited: store.blocks_deposited,
            epsilon: store.epsilon,
        })
    }

    /// Drains exactly `n_bits` from a link's store, in deposit order.
    ///
    /// No bit is ever delivered twice: the store advances past delivered
    /// material atomically with the delivery.
    ///
    /// # Errors
    ///
    /// * [`QkdError::InvalidParameter`] for an unknown link or a zero-bit
    ///   request.
    /// * [`QkdError::KeyStoreShortfall`] when fewer than `n_bits` are
    ///   available; the shortfall is reported and *nothing* is delivered (no
    ///   partial keys).
    pub fn get_key(&self, link: usize, n_bits: usize) -> Result<DeliveredKey> {
        if n_bits == 0 {
            return Err(QkdError::invalid_parameter(
                "n_bits",
                "key requests must ask for at least one bit",
            ));
        }
        let (key, ticket) = {
            let mut inner = self.inner.lock();
            let store = inner.get_mut(&link).ok_or_else(|| {
                QkdError::invalid_parameter("link", format!("unknown link {link}"))
            })?;
            if store.available() < n_bits {
                return Err(QkdError::KeyStoreShortfall {
                    link: link as u64,
                    requested: n_bits as u64,
                    available: store.available() as u64,
                });
            }
            let ticket = self.submit_record(|| Record::Deliver {
                link: link as u64,
                at_ms: self.clock.now_ms(),
                n_bits: n_bits as u64,
            })?;
            (store.drain(link, n_bits), ticket)
        };
        self.commit_record(ticket)?;
        let obs = store_obs();
        obs.keys_delivered.inc();
        obs.available_bits.add(-(n_bits as f64));
        Ok(key)
    }

    /// Reserves `count` keys of `size_bits` each for a master/slave SAE pair:
    /// the bits are drained exactly like [`KeyStore::get_key`] (delivered to
    /// the master, counted once in the ledger), and a copy of each key is
    /// parked under its [`KeyId`] for one retrieval via
    /// [`KeyStore::get_key_by_id`] — by a pickup presenting the same `claim`
    /// (an opaque tag; the delivery API passes the intended recipient's SAE
    /// id, so no other consumer can redeem or probe the reservation even
    /// when several pairs share the link). All-or-nothing: a shortfall
    /// reserves nothing.
    ///
    /// `ttl` bounds how long the parked copies wait for pickup: a
    /// reservation older than its TTL is reclaimed by the next
    /// [`KeyStore::expire_reservations`] sweep (the bits return to the
    /// available pool, the delivery ledger is rolled back, and the ID stops
    /// being redeemable). `None` parks forever.
    ///
    /// # Errors
    ///
    /// * [`QkdError::InvalidParameter`] for an unknown link or a zero count
    ///   or size.
    /// * [`QkdError::KeyStoreShortfall`] when fewer than `count * size_bits`
    ///   bits are available.
    pub fn reserve_keys(
        &self,
        link: usize,
        count: usize,
        size_bits: usize,
        claim: Option<&str>,
        ttl: Option<Duration>,
    ) -> Result<Vec<DeliveredKey>> {
        if count == 0 || size_bits == 0 {
            return Err(QkdError::invalid_parameter(
                "reserve",
                "key count and size must both be at least one",
            ));
        }
        let total = count * size_bits;
        let (keys, ticket) = {
            let mut inner = self.inner.lock();
            let store = inner.get_mut(&link).ok_or_else(|| {
                QkdError::invalid_parameter("link", format!("unknown link {link}"))
            })?;
            if store.available() < total {
                return Err(QkdError::KeyStoreShortfall {
                    link: link as u64,
                    requested: total as u64,
                    available: store.available() as u64,
                });
            }
            let now_ms = self.clock.now_ms();
            let expires_at = ttl
                .map(|t| now_ms.saturating_add(u64::try_from(t.as_millis()).unwrap_or(u64::MAX)));
            let ticket = self.submit_record(|| Record::Reserve {
                link: link as u64,
                at_ms: now_ms,
                count: count as u64,
                size_bits: size_bits as u64,
                claim: claim.map(str::to_string),
                expires_at_ms: expires_at,
            })?;
            let mut keys = Vec::with_capacity(count);
            for _ in 0..count {
                let key = store.drain(link, size_bits);
                store.parked.insert(
                    key.id.serial,
                    Reservation {
                        bits: key.bits.clone(),
                        epsilon: key.epsilon,
                        claim: claim.map(str::to_string),
                        expires_at,
                    },
                );
                keys.push(key);
            }
            (keys, ticket)
        };
        self.commit_record(ticket)?;
        let obs = store_obs();
        obs.keys_delivered.add(count as u64);
        obs.reservations.add(count as u64);
        obs.available_bits.add(-(total as f64));
        Ok(keys)
    }

    /// Reclaims every reservation whose TTL deadline lies at or before
    /// `now`, across all links, and returns how many were reclaimed. The
    /// delivery tier's sweeper calls this periodically with
    /// `Instant::now()`; tests may pass a future instant to force expiry
    /// deterministically.
    ///
    /// Reclaiming un-delivers the parked copy: the bits re-enter the
    /// available pool at the tail of the link's stream, `delivered_bits` is
    /// rolled back by the same amount (so the ledger and
    /// [`LinkManager::reconcile`](crate::manager::LinkManager::reconcile)
    /// keep balancing bit-for-bit), the per-link
    /// [`KeyStatus::reservations_expired`] counter advances, and the ID is
    /// answered like a never-reserved one from then on. Untimed
    /// reservations (`ttl == None`) are never touched.
    /// # Errors
    ///
    /// Returns [`QkdError::JournalError`] when the store is durable and the
    /// reclaim record cannot be made durable (nothing is reclaimed then —
    /// the reservations stay parked for a later sweep).
    pub fn expire_reservations(&self, now: Instant) -> Result<u64> {
        let now_ms = self.clock.at(now);
        let mut reclaimed = 0u64;
        let mut reclaimed_bits = 0u64;
        let ticket = {
            let mut inner = self.inner.lock();
            // Decide-then-journal-then-apply: the record carries the
            // explicit serial list, so replay reclaims exactly this set even
            // if clocks drift across the restart.
            let expired: Vec<(u64, u64)> = inner
                .iter()
                .flat_map(|(&link, store)| {
                    store
                        .parked
                        .iter()
                        .filter(|(_, r)| r.expires_at.is_some_and(|at| at <= now_ms))
                        .map(move |(&serial, _)| (link as u64, serial))
                })
                .collect();
            if expired.is_empty() {
                return Ok(0);
            }
            let ticket = self.submit_record(|| Record::Expire {
                at_ms: now_ms,
                expired: expired.clone(),
            })?;
            for &(link, serial) in &expired {
                let Some(store) = inner.get_mut(&(link as usize)) else {
                    continue;
                };
                if let Some(reservation) = store.parked.remove(&serial) {
                    let bits = reservation.bits.len() as u64;
                    store.shelf.push(reservation.bits);
                    store.delivered_bits -= bits;
                    store.reservations_expired += 1;
                    reclaimed += 1;
                    reclaimed_bits += bits;
                }
            }
            ticket
        };
        self.commit_record(ticket)?;
        if reclaimed > 0 {
            let obs = store_obs();
            obs.expiries.add(reclaimed);
            obs.available_bits.add(reclaimed_bits as f64);
        }
        Ok(reclaimed)
    }

    /// Retrieves the peer's copy of a reserved key, exactly once: the parked
    /// entry is removed with the retrieval, so a repeated pickup (or a forged
    /// serial) fails. `claim` must equal the tag the reservation was made
    /// with; a mismatch is answered exactly like a non-existent ID, so a
    /// foreign consumer cannot even probe for the reservation.
    ///
    /// # Errors
    ///
    /// * [`QkdError::InvalidParameter`] for an unknown link.
    /// * [`QkdError::UnknownKeyId`] when no reservation is parked under `id`
    ///   for this claim.
    pub fn get_key_by_id(&self, id: KeyId, claim: Option<&str>) -> Result<DeliveredKey> {
        let (key, ticket) = {
            let mut inner = self.inner.lock();
            let store = inner.get_mut(&id.link).ok_or_else(|| {
                QkdError::invalid_parameter("link", format!("unknown link {}", id.link))
            })?;
            let matches = store
                .parked
                .get(&id.serial)
                .is_some_and(|r| r.claim.as_deref() == claim);
            if !matches {
                return Err(QkdError::UnknownKeyId {
                    link: id.link as u64,
                    serial: id.serial,
                });
            }
            let ticket = self.submit_record(|| Record::Redeem {
                at_ms: self.clock.now_ms(),
                ids: vec![(id.link as u64, id.serial)],
            })?;
            let reservation = store
                .parked
                .remove(&id.serial)
                .ok_or(QkdError::UnknownKeyId {
                    link: id.link as u64,
                    serial: id.serial,
                })?;
            (
                DeliveredKey {
                    id,
                    bits: reservation.bits,
                    epsilon: reservation.epsilon,
                },
                ticket,
            )
        };
        self.commit_record(ticket)?;
        store_obs().pickups.inc();
        Ok(key)
    }

    /// Retrieves several reserved keys atomically: either every ID is parked
    /// under this `claim` and all are removed together, or nothing is
    /// consumed (the delivery API must not burn a batch's earlier pickups on
    /// a bad trailing ID).
    ///
    /// # Errors
    ///
    /// * [`QkdError::InvalidParameter`] for an empty batch or an unknown link.
    /// * [`QkdError::UnknownKeyId`] naming the first ID that is not parked
    ///   for this claim; every parked key of the batch stays retrievable.
    pub fn get_keys_by_id(&self, ids: &[KeyId], claim: Option<&str>) -> Result<Vec<DeliveredKey>> {
        if ids.is_empty() {
            return Err(QkdError::invalid_parameter(
                "key_IDs",
                "a pickup must name at least one key ID",
            ));
        }
        let mut seen = std::collections::BTreeSet::new();
        for id in ids {
            // A duplicate in one batch is a double pickup of the second
            // occurrence; rejecting it up front keeps the batch atomic.
            if !seen.insert((id.link, id.serial)) {
                return Err(QkdError::invalid_parameter(
                    "key_IDs",
                    format!("key ID {id} appears twice in one pickup"),
                ));
            }
        }
        let mut inner = self.inner.lock();
        for id in ids {
            let store = inner.get(&id.link).ok_or_else(|| {
                QkdError::invalid_parameter("link", format!("unknown link {}", id.link))
            })?;
            let matches = store
                .parked
                .get(&id.serial)
                .is_some_and(|r| r.claim.as_deref() == claim);
            if !matches {
                return Err(QkdError::UnknownKeyId {
                    link: id.link as u64,
                    serial: id.serial,
                });
            }
        }
        let ticket = self.submit_record(|| Record::Redeem {
            at_ms: self.clock.now_ms(),
            ids: ids.iter().map(|id| (id.link as u64, id.serial)).collect(),
        })?;
        // Presence (and claim) of every ID was checked above under the same
        // lock, so the lookups cannot miss — but the path stays typed
        // rather than panicking on an impossible state.
        let mut keys = Vec::with_capacity(ids.len());
        for &id in ids {
            let reservation = inner
                .get_mut(&id.link)
                .and_then(|store| store.parked.remove(&id.serial))
                .ok_or(QkdError::UnknownKeyId {
                    link: id.link as u64,
                    serial: id.serial,
                })?;
            keys.push(DeliveredKey {
                id,
                bits: reservation.bits,
                epsilon: reservation.epsilon,
            });
        }
        drop(inner);
        self.commit_record(ticket)?;
        store_obs().pickups.add(keys.len() as u64);
        Ok(keys)
    }

    /// Opens a **durable** store backed by the journal directory at `dir`:
    /// replays whatever history is there (none for a fresh directory),
    /// rebuilds the store — pools, parked reservations, TTL deadlines,
    /// delivery serials — and starts journaling to a fresh segment.
    ///
    /// Also returns the SAE budgets found in the log, for the delivery
    /// tier to seed its registry with (the store does not own budgets).
    ///
    /// # Errors
    ///
    /// Returns [`QkdError::JournalError`] when the journal cannot be read,
    /// is damaged anywhere but its final frame, or replays to a history the
    /// store contract rejects (e.g. a redeem of a never-parked serial).
    pub fn open_durable(
        dir: impl AsRef<std::path::Path>,
        config: qkd_journal::JournalConfig,
    ) -> Result<(KeyStore, Vec<RecoveredBudget>)> {
        let replayed = qkd_journal::replay(dir.as_ref())?;
        let journal = Arc::new(Journal::open(dir.as_ref(), config)?);
        KeyStore::recover(replayed, journal)
    }

    /// Rebuilds a store from replayed records and attaches `journal` for
    /// the life ahead. The store clock is fast-forwarded past the newest
    /// journaled stamp, so TTL deadlines that had budget left at the crash
    /// keep (at least) that budget — recovery can delay an expiry, never
    /// double-fire one.
    fn recover(
        replayed: Replayed,
        journal: Arc<Journal>,
    ) -> Result<(KeyStore, Vec<RecoveredBudget>)> {
        let clock = StoreClock::new();
        clock.advance_to(replayed.stats.max_at_ms);
        let mut links: BTreeMap<usize, LinkStore> = BTreeMap::new();
        let mut budgets: BTreeMap<String, (u64, u64)> = BTreeMap::new();
        for record in replayed.records {
            apply_record(&mut links, &mut budgets, record)?;
        }
        for store in links.values_mut() {
            store.recovered_bits = store.deposited_bits;
        }
        let budgets = budgets
            .into_iter()
            .map(|(sae, (requests_used, key_bits_used))| RecoveredBudget {
                sae,
                requests_used,
                key_bits_used,
            })
            .collect();
        Ok((
            KeyStore {
                inner: Mutex::new(links),
                journal: Some(journal),
                clock,
            },
            budgets,
        ))
    }

    /// Compacts the journal: snapshots the entire live store into a fresh
    /// segment and deletes the history it supersedes. `extra` records are
    /// appended after the snapshot — the delivery tier passes its SAE
    /// budget records here, since a snapshot resets only store state and
    /// budget history would otherwise vanish with the dead segments.
    ///
    /// The store lock is held for the duration, so the snapshot is a
    /// consistent cut: no mutation can slip between the state it captures
    /// and the history it replaces.
    ///
    /// # Errors
    ///
    /// Returns [`QkdError::JournalError`] for an in-memory store or when
    /// the snapshot segment cannot be written.
    pub fn compact_journal(&self, extra: &[Record]) -> Result<CompactionStats> {
        let journal = self
            .journal
            .as_ref()
            .ok_or_else(|| QkdError::journal("store has no journal to compact"))?;
        let inner = self.inner.lock();
        let snapshot = Record::Snapshot {
            at_ms: self.clock.now_ms(),
            links: inner
                .iter()
                .map(|(&link, store)| LinkSnapshot {
                    link: link as u64,
                    epsilon: store.epsilon,
                    deposited_bits: store.deposited_bits,
                    delivered_bits: store.delivered_bits,
                    keys_delivered: store.keys_delivered,
                    blocks_deposited: store.blocks_deposited,
                    reservations_expired: store.reservations_expired,
                    pool: store.shelf.rest(),
                    parked: store
                        .parked
                        .iter()
                        .map(|(&serial, r)| ReservationSnapshot {
                            serial,
                            epsilon: r.epsilon,
                            claim: r.claim.clone(),
                            expires_at_ms: r.expires_at,
                            bits: r.bits.clone(),
                        })
                        .collect(),
                })
                .collect(),
        };
        let mut records = Vec::with_capacity(1 + extra.len());
        records.push(snapshot);
        records.extend(extra.iter().cloned());
        let stats = journal.compact(&records)?;
        drop(inner);
        Ok(stats)
    }
}

fn diverged(what: impl std::fmt::Display) -> QkdError {
    QkdError::journal(format!("replay diverged from the store contract: {what}"))
}

fn link_index(link: u64) -> Result<usize> {
    usize::try_from(link).map_err(|_| diverged(format_args!("link id {link} overflows")))
}

/// Re-applies one journaled mutation to the store being rebuilt. Pure
/// state transformation — nothing here journals, times, or records
/// metrics; divergence from the store contract (a journal that could not
/// have been written by this store) is a typed error.
fn apply_record(
    links: &mut BTreeMap<usize, LinkStore>,
    budgets: &mut BTreeMap<String, (u64, u64)>,
    record: Record,
) -> Result<()> {
    match record {
        Record::Register { link } => {
            links.entry(link_index(link)?).or_default();
        }
        Record::Deposit {
            link,
            at_ms: _,
            epsilon,
            bits,
        } => {
            let store = links.entry(link_index(link)?).or_default();
            store.deposited_bits += bits.len() as u64;
            store.shelf.push(bits);
            store.blocks_deposited += 1;
            store.epsilon += epsilon;
        }
        Record::Deliver {
            link,
            at_ms: _,
            n_bits,
        } => {
            let index = link_index(link)?;
            let store = links
                .get_mut(&index)
                .ok_or_else(|| diverged(format_args!("deliver on unknown link {link}")))?;
            let n_bits = usize::try_from(n_bits)
                .map_err(|_| diverged(format_args!("deliver of {n_bits} bits")))?;
            if store.available() < n_bits {
                return Err(diverged(format_args!(
                    "deliver of {n_bits} bits with {} available on link {link}",
                    store.available()
                )));
            }
            // Burns the serial and advances the ledger; the delivered copy
            // went to a consumer in the previous life, so it is dropped
            // (and zeroized) here.
            drop(store.drain(index, n_bits));
        }
        Record::Reserve {
            link,
            at_ms: _,
            count,
            size_bits,
            claim,
            expires_at_ms,
        } => {
            let index = link_index(link)?;
            let store = links
                .get_mut(&index)
                .ok_or_else(|| diverged(format_args!("reserve on unknown link {link}")))?;
            let count = usize::try_from(count)
                .map_err(|_| diverged(format_args!("reserve count {count}")))?;
            let size_bits = usize::try_from(size_bits)
                .map_err(|_| diverged(format_args!("reserve size {size_bits}")))?;
            let total = count
                .checked_mul(size_bits)
                .ok_or_else(|| diverged("reserve size overflow"))?;
            if store.available() < total {
                return Err(diverged(format_args!(
                    "reserve of {total} bits with {} available on link {link}",
                    store.available()
                )));
            }
            for _ in 0..count {
                let key = store.drain(index, size_bits);
                store.parked.insert(
                    key.id.serial,
                    Reservation {
                        bits: key.bits.clone(),
                        epsilon: key.epsilon,
                        claim: claim.clone(),
                        expires_at: expires_at_ms,
                    },
                );
            }
        }
        Record::Redeem { at_ms: _, ids } => {
            for (link, serial) in ids {
                let index = link_index(link)?;
                links
                    .get_mut(&index)
                    .and_then(|store| store.parked.remove(&serial))
                    .ok_or_else(|| {
                        diverged(format_args!("redeem of unparked link{link}/key{serial}"))
                    })?;
            }
        }
        Record::Expire { at_ms: _, expired } => {
            for (link, serial) in expired {
                let index = link_index(link)?;
                let store = links
                    .get_mut(&index)
                    .ok_or_else(|| diverged(format_args!("expire on unknown link {link}")))?;
                let reservation = store.parked.remove(&serial).ok_or_else(|| {
                    diverged(format_args!("expire of unparked link{link}/key{serial}"))
                })?;
                store.delivered_bits -= reservation.bits.len() as u64;
                store.reservations_expired += 1;
                store.shelf.push(reservation.bits);
            }
        }
        Record::Budget {
            sae,
            requests_used,
            key_bits_used,
        } => {
            budgets.insert(sae, (requests_used, key_bits_used));
        }
        Record::Snapshot {
            at_ms: _,
            links: snaps,
        } => {
            // A snapshot is a full reset of store state (budget records are
            // re-appended alongside it by the compactor, so `budgets` is
            // deliberately left alone).
            links.clear();
            for snap in snaps {
                let mut store = LinkStore {
                    shelf: Shelf::default(),
                    deposited_bits: snap.deposited_bits,
                    delivered_bits: snap.delivered_bits,
                    keys_delivered: snap.keys_delivered,
                    blocks_deposited: snap.blocks_deposited,
                    reservations_expired: snap.reservations_expired,
                    epsilon: snap.epsilon,
                    recovered_bits: 0,
                    parked: BTreeMap::new(),
                };
                store.shelf.push(snap.pool);
                for parked in snap.parked {
                    store.parked.insert(
                        parked.serial,
                        Reservation {
                            bits: parked.bits,
                            epsilon: parked.epsilon,
                            claim: parked.claim,
                            expires_at: parked.expires_at_ms,
                        },
                    );
                }
                links.insert(link_index(snap.link)?, store);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use qkd_types::rng::derive_rng;
    use qkd_types::{BitVec, BlockId};

    fn secret(len: usize, seed: u64) -> SecretKey {
        let mut rng = derive_rng(seed, "store-test");
        SecretKey {
            block: BlockId::new(0, seed),
            bits: BitVec::random(&mut rng, len).into(),
            epsilon: 1e-10,
        }
    }

    #[test]
    fn drains_in_deposit_order_without_double_delivery() {
        let store = KeyStore::default();
        let k1 = secret(100, 1);
        let k2 = secret(60, 2);
        store.deposit(0, &k1).unwrap();
        store.deposit(0, &k2).unwrap();

        let mut expected = k1.bits.expose().clone();
        expected.extend_from(&k2.bits);

        let d1 = store.get_key(0, 70).unwrap();
        let d2 = store.get_key(0, 90).unwrap();
        assert_eq!(d1.id, KeyId { link: 0, serial: 0 });
        assert_eq!(d2.id, KeyId { link: 0, serial: 1 });
        assert_eq!(d1.bits, expected.slice(0, 70));
        assert_eq!(d2.bits, expected.slice(70, 160));
        assert_eq!(d1.id.to_string(), "link0/key0");

        let status = store.status(0).unwrap();
        assert_eq!(status.deposited_bits, 160);
        assert_eq!(status.delivered_bits, 160);
        assert_eq!(status.available_bits, 0);
        assert_eq!(status.keys_delivered, 2);
        assert_eq!(status.blocks_deposited, 2);
        assert!(status.balances());
        assert!((status.epsilon - 2e-10).abs() < 1e-22);
    }

    #[test]
    fn shortfall_reports_availability_and_delivers_nothing() {
        let store = KeyStore::default();
        store.deposit(3, &secret(40, 3)).unwrap();
        match store.get_key(3, 50) {
            Err(QkdError::KeyStoreShortfall {
                link,
                requested,
                available,
            }) => {
                assert_eq!((link, requested, available), (3, 50, 40));
            }
            other => panic!("expected shortfall, got {other:?}"),
        }
        // Nothing was consumed by the failed request.
        let status = store.status(3).unwrap();
        assert_eq!(status.available_bits, 40);
        assert_eq!(status.delivered_bits, 0);
        assert_eq!(status.keys_delivered, 0);
    }

    #[test]
    fn unknown_links_and_zero_requests_rejected() {
        let store = KeyStore::default();
        assert!(store.status(9).is_err());
        assert!(store.get_key(9, 8).is_err());
        store.register(9).unwrap();
        assert_eq!(store.status(9).unwrap().deposited_bits, 0);
        assert!(matches!(
            store.get_key(9, 0),
            Err(QkdError::InvalidParameter { .. })
        ));
        assert_eq!(store.links(), vec![9]);
    }

    #[test]
    fn draining_across_deposits_preserves_the_stream() {
        let store = KeyStore::default();
        let k = secret(1000, 5);
        store.deposit(1, &k).unwrap();
        // Drain most of the first deposit in small keys, then one key that
        // spans its tail and the whole of a second deposit.
        let mut delivered = BitVec::new();
        for _ in 0..9 {
            delivered.extend_from(&store.get_key(1, 100).unwrap().bits);
        }
        store.deposit(1, &secret(24, 6)).unwrap();
        delivered.extend_from(&store.get_key(1, 124).unwrap().bits);
        let mut expected = k.bits.expose().clone();
        expected.extend_from(&secret(24, 6).bits);
        assert_eq!(delivered, expected);
        let status = store.status(1).unwrap();
        assert!(status.balances());
        assert_eq!(status.available_bits, 0);
    }

    #[test]
    fn shelf_is_a_fifo_of_bits_whatever_the_chunking() {
        let mut rng = derive_rng(7, "shelf-test");
        let mut shelf = Shelf::default();
        let mut stream = BitVec::new();
        let mut taken = 0usize;
        for round in 0..40 {
            let chunk = BitVec::random(&mut rng, [0, 1, 63, 64, 65, 500][round % 6]);
            stream.extend_from(&chunk);
            shelf.push(chunk.into());
            assert_eq!(shelf.len(), stream.len() - taken);
            assert_eq!(shelf.rest(), stream.slice(taken, stream.len()));
            let n = [0, 1, 70, 64, 300, 129][(round * 5) % 6].min(shelf.len());
            assert_eq!(
                shelf.take(n),
                stream.slice(taken, taken + n),
                "round {round}"
            );
            taken += n;
        }
        // Asking for more than is held hands over what there is.
        let rest = shelf.take(usize::MAX);
        assert_eq!(rest, stream.slice(taken, stream.len()));
        assert_eq!(shelf.len(), 0);
        assert!(shelf.chunks.is_empty() && shelf.take(8).is_empty());
    }

    #[test]
    fn key_id_parses_its_display_form() {
        let id = KeyId {
            link: 4,
            serial: 17,
        };
        assert_eq!(id.to_string().parse::<KeyId>().unwrap(), id);
        for bad in ["", "link4", "key7", "link/key", "linkx/key1", "link1/keyy"] {
            assert!(bad.parse::<KeyId>().is_err(), "`{bad}` must not parse");
        }
    }

    #[test]
    fn reservation_parks_a_copy_for_exactly_one_pickup() {
        let store = KeyStore::default();
        let k = secret(512, 9);
        store.deposit(0, &k).unwrap();

        let reserved = store.reserve_keys(0, 2, 100, None, None).unwrap();
        assert_eq!(reserved.len(), 2);
        assert_eq!(reserved[0].id, KeyId { link: 0, serial: 0 });
        assert_eq!(reserved[1].id, KeyId { link: 0, serial: 1 });
        assert_eq!(reserved[0].bits, k.bits.slice(0, 100));
        assert_eq!(reserved[1].bits, k.bits.slice(100, 200));

        let status = store.status(0).unwrap();
        assert_eq!(status.delivered_bits, 200);
        assert_eq!(status.available_bits, 312);
        assert_eq!(status.reserved_keys, 2);
        assert!(status.balances());

        // The peer retrieves the same bits by ID, in any order, exactly once.
        let picked = store.get_key_by_id(reserved[1].id, None).unwrap();
        assert_eq!(picked.bits, reserved[1].bits);
        assert_eq!(picked.epsilon, reserved[1].epsilon);
        assert_eq!(store.status(0).unwrap().reserved_keys, 1);
        assert!(matches!(
            store.get_key_by_id(reserved[1].id, None),
            Err(QkdError::UnknownKeyId { link: 0, serial: 1 })
        ));
        let picked = store.get_key_by_id(reserved[0].id, None).unwrap();
        assert_eq!(picked.bits, reserved[0].bits);
        assert_eq!(store.status(0).unwrap().reserved_keys, 0);

        // Reservations interleave with plain draining on the same serial
        // sequence — the next direct drain continues where the reserve ended.
        let direct = store.get_key(0, 50).unwrap();
        assert_eq!(direct.id.serial, 2);
        assert_eq!(direct.bits, k.bits.slice(200, 250));
    }

    #[test]
    fn batched_pickup_is_all_or_nothing() {
        let store = KeyStore::default();
        store.deposit(0, &secret(400, 13)).unwrap();
        let reserved = store
            .reserve_keys(0, 3, 100, Some("peer-sae"), None)
            .unwrap();
        let ids: Vec<KeyId> = reserved.iter().map(|k| k.id).collect();

        // A batch naming one unknown ID consumes nothing.
        let mut with_bogus = ids.clone();
        with_bogus.push(KeyId {
            link: 0,
            serial: 99,
        });
        assert!(matches!(
            store.get_keys_by_id(&with_bogus, Some("peer-sae")),
            Err(QkdError::UnknownKeyId { serial: 99, .. })
        ));
        assert_eq!(store.status(0).unwrap().reserved_keys, 3);

        // A batch with a duplicate ID is rejected up front.
        assert!(store
            .get_keys_by_id(&[ids[0], ids[0]], Some("peer-sae"))
            .is_err());
        assert!(store.get_keys_by_id(&[], Some("peer-sae")).is_err());
        assert_eq!(store.status(0).unwrap().reserved_keys, 3);

        let picked = store.get_keys_by_id(&ids, Some("peer-sae")).unwrap();
        for (p, r) in picked.iter().zip(&reserved) {
            assert_eq!(p.bits, r.bits);
        }
        assert_eq!(store.status(0).unwrap().reserved_keys, 0);
        assert!(matches!(
            store.get_keys_by_id(&ids, Some("peer-sae")),
            Err(QkdError::UnknownKeyId { .. })
        ));
    }

    #[test]
    fn pickups_require_the_reservation_claim() {
        let store = KeyStore::default();
        store.deposit(0, &secret(300, 17)).unwrap();
        let for_bob = store.reserve_keys(0, 1, 100, Some("bob"), None).unwrap();
        let untagged = store.reserve_keys(0, 1, 100, None, None).unwrap();

        // A foreign claim (or no claim) is answered like a missing ID, and
        // consumes nothing.
        for claim in [Some("mallory"), None] {
            assert!(matches!(
                store.get_key_by_id(for_bob[0].id, claim),
                Err(QkdError::UnknownKeyId { .. })
            ));
        }
        assert!(matches!(
            store.get_keys_by_id(&[for_bob[0].id, untagged[0].id], Some("bob")),
            Err(QkdError::UnknownKeyId { .. })
        ));
        assert_eq!(store.status(0).unwrap().reserved_keys, 2);

        // The rightful claims redeem bit-exactly.
        assert_eq!(
            store
                .get_key_by_id(for_bob[0].id, Some("bob"))
                .unwrap()
                .bits,
            for_bob[0].bits
        );
        assert_eq!(
            store.get_key_by_id(untagged[0].id, None).unwrap().bits,
            untagged[0].bits
        );
        assert_eq!(store.status(0).unwrap().reserved_keys, 0);
    }

    #[test]
    fn reservation_shortfall_and_bad_parameters_reserve_nothing() {
        let store = KeyStore::default();
        store.deposit(2, &secret(100, 11)).unwrap();
        assert!(matches!(
            store.reserve_keys(2, 3, 40, None, None),
            Err(QkdError::KeyStoreShortfall {
                link: 2,
                requested: 120,
                available: 100,
            })
        ));
        assert!(store.reserve_keys(2, 0, 40, None, None).is_err());
        assert!(store.reserve_keys(2, 1, 0, None, None).is_err());
        assert!(store.reserve_keys(9, 1, 8, None, None).is_err());
        assert!(store
            .get_key_by_id(KeyId { link: 9, serial: 0 }, None)
            .is_err());
        let status = store.status(2).unwrap();
        assert_eq!(status.available_bits, 100);
        assert_eq!(status.reserved_keys, 0);
        assert_eq!(status.keys_delivered, 0);
    }

    #[test]
    fn expired_reservations_return_to_the_pool_and_the_ledger_balances() {
        let store = KeyStore::default();
        let k = secret(600, 21);
        store.deposit(0, &k).unwrap();

        // Two timed reservations, one untimed, one already redeemed.
        let timed = store
            .reserve_keys(0, 2, 100, Some("slow-sae"), Some(Duration::from_secs(3600)))
            .unwrap();
        let forever = store.reserve_keys(0, 1, 100, None, None).unwrap();
        let redeemed = store
            .reserve_keys(0, 1, 100, Some("fast-sae"), Some(Duration::from_secs(3600)))
            .unwrap();
        assert_eq!(
            store
                .get_key_by_id(redeemed[0].id, Some("fast-sae"))
                .unwrap()
                .bits,
            redeemed[0].bits
        );
        let before = store.status(0).unwrap();
        assert_eq!(before.available_bits, 200);
        assert_eq!(before.delivered_bits, 400);
        assert_eq!(before.reserved_keys, 3);
        assert_eq!(before.reservations_expired, 0);

        // Nothing is due yet: a sweep at "now" reclaims nothing.
        assert_eq!(store.expire_reservations(Instant::now()).unwrap(), 0);
        assert_eq!(store.status(0).unwrap(), before);

        // A sweep past the deadline reclaims exactly the two timed parked
        // reservations — the redeemed one is gone, the untimed one stays.
        let reclaimed = store
            .expire_reservations(Instant::now() + Duration::from_secs(7200))
            .unwrap();
        assert_eq!(reclaimed, 2);
        let after = store.status(0).unwrap();
        assert_eq!(after.available_bits, 400, "bits are available again");
        assert_eq!(after.delivered_bits, 200, "delivery ledger rolled back");
        assert_eq!(after.reserved_keys, 1);
        assert_eq!(after.reservations_expired, 2);
        assert!(after.balances(), "deposited = delivered + available");

        // Expired IDs are answered like never-reserved ones…
        for key in &timed {
            assert!(matches!(
                store.get_key_by_id(key.id, Some("slow-sae")),
                Err(QkdError::UnknownKeyId { .. })
            ));
        }
        // …the untimed reservation still redeems…
        assert_eq!(
            store.get_key_by_id(forever[0].id, None).unwrap().bits,
            forever[0].bits
        );
        // …and the reclaimed bits are re-delivered after the remaining pool,
        // in reservation order (tail of the stream).
        let rest = store.get_key(0, 200).unwrap();
        assert_eq!(rest.bits, k.bits.slice(400, 600));
        let re1 = store.get_key(0, 100).unwrap();
        let re2 = store.get_key(0, 100).unwrap();
        assert_eq!(re1.bits, timed[0].bits);
        assert_eq!(re2.bits, timed[1].bits);
        let end = store.status(0).unwrap();
        assert!(end.balances());
        assert_eq!(end.available_bits, 0);
        assert_eq!(end.reservations_expired, 2);
    }

    #[test]
    fn links_are_isolated() {
        let store = KeyStore::default();
        store.deposit(0, &secret(64, 7)).unwrap();
        store.deposit(1, &secret(32, 8)).unwrap();
        assert_eq!(store.status(0).unwrap().available_bits, 64);
        assert_eq!(store.status(1).unwrap().available_bits, 32);
        store.get_key(0, 64).unwrap();
        assert_eq!(store.status(1).unwrap().available_bits, 32);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Interleaved reservations (`enc_keys`, timed and untimed),
            /// by-ID pickups (`dec_keys`), direct drains and TTL sweeps
            /// across several links, checked against a FIFO pool model:
            /// every delivered window is the front of that link's pool,
            /// expired reservations re-enter at the tail (in link/serial
            /// order, matching `expire_reservations`), every pickup is
            /// bit-identical to its reservation and possible exactly once,
            /// an expired ID is never redeemable, and the ledger balances
            /// after every operation.
            #[test]
            fn interleaved_reserve_expire_and_redeem_never_double_deliver(
                seed in any::<u64>(),
                ops in collection::vec((0u8..6, 0usize..3, 1usize..80), 1..80),
            ) {
                use std::collections::{BTreeMap, VecDeque};

                const LINKS: usize = 3;
                const TTL: Duration = Duration::from_secs(3600);
                let store = KeyStore::default();
                // Model: per-link FIFO pool of undelivered bits, plus the
                // cumulative delivered / expired counters the status report
                // must agree with.
                let mut pools: Vec<VecDeque<bool>> = Vec::new();
                let mut delivered = [0u64; LINKS];
                let mut expired_count = [0u64; LINKS];
                for link in 0..LINKS {
                    let key = secret(2000, seed.wrapping_add(link as u64));
                    store.deposit(link, &key).unwrap();
                    pools.push(key.bits.to_bools().into());
                }
                // Parked reservations keyed exactly like the store's own
                // maps so expiry reclaim order matches: (bits, timed).
                let mut parked: BTreeMap<(usize, u64), (Vec<bool>, bool)> = BTreeMap::new();
                let mut dead_ids: Vec<KeyId> = Vec::new();
                let take = |pool: &mut VecDeque<bool>, n: usize| -> Vec<bool> {
                    pool.drain(..n).collect()
                };
                for (op, link, size) in ops {
                    match op {
                        // Direct drain (in-process consumer).
                        0 => match store.get_key(link, size) {
                            Ok(key) => {
                                prop_assert!(pools[link].len() >= size);
                                let want = take(&mut pools[link], size);
                                prop_assert_eq!(key.bits.to_bools(), want);
                                delivered[link] += size as u64;
                            }
                            Err(QkdError::KeyStoreShortfall { available, .. }) => {
                                prop_assert_eq!(available as usize, pools[link].len());
                                prop_assert!(pools[link].len() < size);
                            }
                            Err(e) => panic!("unexpected get_key error: {e}"),
                        },
                        // Master-side reservation: op 1 parks two keys with
                        // no deadline, op 2 parks one key on the clock.
                        1 | 2 => {
                            let (count, ttl) =
                                if op == 1 { (2, None) } else { (1, Some(TTL)) };
                            match store.reserve_keys(link, count, size, None, ttl) {
                                Ok(keys) => {
                                    for key in keys {
                                        prop_assert!(pools[link].len() >= size);
                                        let want = take(&mut pools[link], size);
                                        prop_assert_eq!(&key.bits.to_bools(), &want);
                                        delivered[link] += size as u64;
                                        parked.insert(
                                            (link, key.id.serial),
                                            (want, ttl.is_some()),
                                        );
                                    }
                                }
                                Err(QkdError::KeyStoreShortfall { available, .. }) => {
                                    prop_assert_eq!(available as usize, pools[link].len());
                                    prop_assert!(pools[link].len() < count * size);
                                }
                                Err(e) => panic!("unexpected reserve error: {e}"),
                            }
                        }
                        // Slave-side pickup of the oldest outstanding key.
                        3 if !parked.is_empty() => {
                            let (&(l, serial), _) = parked.iter().next().unwrap();
                            let (want, _) = parked.remove(&(l, serial)).unwrap();
                            let id = KeyId { link: l, serial };
                            let key = store.get_key_by_id(id, None).unwrap();
                            prop_assert_eq!(key.bits.to_bools(), want);
                            // A second pickup of the same ID must fail.
                            prop_assert!(matches!(
                                store.get_key_by_id(id, None),
                                Err(QkdError::UnknownKeyId { .. })
                            ));
                        }
                        // Sweep: every timed reservation is past its
                        // deadline; its bits re-enter the pool tail in
                        // (link, serial) order and the ID dies.
                        4 => {
                            let now = Instant::now() + TTL + TTL;
                            let due: Vec<(usize, u64)> = parked
                                .iter()
                                .filter(|(_, (_, timed))| *timed)
                                .map(|(&k, _)| k)
                                .collect();
                            let reclaimed = store.expire_reservations(now).unwrap();
                            prop_assert_eq!(reclaimed as usize, due.len());
                            for (l, serial) in due {
                                let (bits, _) = parked.remove(&(l, serial)).unwrap();
                                delivered[l] -= bits.len() as u64;
                                pools[l].extend(bits);
                                expired_count[l] += 1;
                                dead_ids.push(KeyId { link: l, serial });
                            }
                        }
                        // Pickup of a never-reserved serial fails.
                        _ => {
                            let id = KeyId { link, serial: u64::MAX };
                            prop_assert!(matches!(
                                store.get_key_by_id(id, None),
                                Err(QkdError::UnknownKeyId { .. })
                            ));
                        }
                    }
                    // Expired IDs stay dead forever.
                    for &id in &dead_ids {
                        prop_assert!(matches!(
                            store.get_key_by_id(id, None),
                            Err(QkdError::UnknownKeyId { .. })
                        ));
                    }
                    for l in 0..LINKS {
                        let status = store.status(l).unwrap();
                        prop_assert!(status.balances());
                        prop_assert_eq!(status.available_bits as usize, pools[l].len());
                        prop_assert_eq!(status.delivered_bits, delivered[l]);
                        prop_assert_eq!(status.reservations_expired, expired_count[l]);
                    }
                }
                // Whatever is still parked remains retrievable, bit-exact.
                for ((l, serial), (want, _)) in parked {
                    let id = KeyId { link: l, serial };
                    prop_assert_eq!(
                        store.get_key_by_id(id, None).unwrap().bits.to_bools(),
                        want
                    );
                }
            }
        }
    }

    /// The durability tier's headline invariant, end to end: run a mixed
    /// workload against a journaled store, crash at **any byte prefix** of
    /// the log, recover, and the rebuilt store agrees with an independent
    /// fold of exactly the records that survived — ledger balanced bit for
    /// bit, redeemed and expired IDs dead, parked reservations bit-exact
    /// under their claims, serials never reused.
    mod durability {
        use super::*;
        use proptest::prelude::*;
        use qkd_journal::{JournalConfig, Record};
        use std::path::{Path, PathBuf};

        fn temp_dir(tag: &str) -> PathBuf {
            use std::sync::atomic::{AtomicU32, Ordering};
            static NEXT: AtomicU32 = AtomicU32::new(0);
            std::env::temp_dir().join(format!(
                "qkd-store-durable-{tag}-{}-{}",
                std::process::id(),
                NEXT.fetch_add(1, Ordering::Relaxed)
            ))
        }

        /// The one segment file a scripted history leaves behind.
        fn segment(dir: &Path) -> PathBuf {
            let mut segments: Vec<PathBuf> = std::fs::read_dir(dir)
                .unwrap()
                .map(|entry| entry.unwrap().path())
                .collect();
            segments.sort();
            assert_eq!(segments.len(), 1, "history must fit one segment");
            segments.pop().unwrap()
        }

        /// Independent model of one link, folded from raw records —
        /// deliberately sharing no code with the store's own `apply_record`.
        #[derive(Default)]
        struct ModelLink {
            /// All pool bits in delivery order; `cursor` marks the drained
            /// prefix. Expired reservations re-enter at the tail.
            stream: Vec<bool>,
            cursor: usize,
            deposited: u64,
            delivered: u64,
            next_serial: u64,
            blocks: u64,
            expired: u64,
            parked: BTreeMap<u64, (Vec<bool>, Option<String>)>,
        }

        fn fold(records: &[Record]) -> (BTreeMap<usize, ModelLink>, Vec<KeyId>) {
            let mut links: BTreeMap<usize, ModelLink> = BTreeMap::new();
            let mut dead: Vec<KeyId> = Vec::new();
            for record in records {
                match record {
                    Record::Register { link } => {
                        links.entry(*link as usize).or_default();
                    }
                    Record::Deposit { link, bits, .. } => {
                        let m = links.entry(*link as usize).or_default();
                        m.stream.extend(bits.to_bools());
                        m.deposited += bits.len() as u64;
                        m.blocks += 1;
                    }
                    Record::Deliver { link, n_bits, .. } => {
                        let m = links.get_mut(&(*link as usize)).unwrap();
                        m.cursor += *n_bits as usize;
                        m.delivered += n_bits;
                        m.next_serial += 1;
                    }
                    Record::Reserve {
                        link,
                        count,
                        size_bits,
                        claim,
                        ..
                    } => {
                        let m = links.get_mut(&(*link as usize)).unwrap();
                        for _ in 0..*count {
                            let size = *size_bits as usize;
                            let bits = m.stream[m.cursor..m.cursor + size].to_vec();
                            m.cursor += size;
                            m.parked.insert(m.next_serial, (bits, claim.clone()));
                            m.next_serial += 1;
                        }
                        m.delivered += count * size_bits;
                    }
                    Record::Redeem { ids, .. } => {
                        for &(link, serial) in ids {
                            let m = links.get_mut(&(link as usize)).unwrap();
                            m.parked.remove(&serial).unwrap();
                            dead.push(KeyId {
                                link: link as usize,
                                serial,
                            });
                        }
                    }
                    Record::Expire { expired, .. } => {
                        for &(link, serial) in expired {
                            let m = links.get_mut(&(link as usize)).unwrap();
                            let (bits, _) = m.parked.remove(&serial).unwrap();
                            m.delivered -= bits.len() as u64;
                            m.expired += 1;
                            m.stream.extend(bits);
                            dead.push(KeyId {
                                link: link as usize,
                                serial,
                            });
                        }
                    }
                    Record::Budget { .. } | Record::Snapshot { .. } => {}
                }
            }
            (links, dead)
        }

        /// Crash the log at `len` bytes, recover, and reconcile the rebuilt
        /// store against the fold of exactly the surviving records.
        fn check_prefix(tag: &str, full: &[u8], len: usize) {
            let dir = temp_dir(tag);
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(dir.join("wal-00000001.qkdj"), &full[..len]).unwrap();

            let replayed = qkd_journal::replay(&dir).unwrap();
            let (model, dead) = fold(&replayed.records);
            let (store, _budgets) = KeyStore::open_durable(&dir, JournalConfig::default()).unwrap();

            // Redeemed and expired IDs stay dead across the crash.
            for id in dead {
                assert!(
                    matches!(
                        store.get_key_by_id(id, None),
                        Err(QkdError::UnknownKeyId { .. })
                    ),
                    "prefix {len}: {id} must stay dead"
                );
            }
            for (link, m) in &model {
                let status = store.status(*link).unwrap();
                assert!(status.balances(), "prefix {len}: {status:?}");
                assert_eq!(status.deposited_bits, m.deposited, "prefix {len}");
                assert_eq!(status.delivered_bits, m.delivered, "prefix {len}");
                assert_eq!(
                    status.available_bits,
                    m.deposited - m.delivered,
                    "prefix {len}"
                );
                assert_eq!(status.keys_delivered, m.next_serial, "prefix {len}");
                assert_eq!(status.reserved_keys, m.parked.len() as u64, "prefix {len}");
                assert_eq!(status.reservations_expired, m.expired, "prefix {len}");
                assert_eq!(status.blocks_deposited, m.blocks, "prefix {len}");

                // A fresh delivery burns a fresh serial (never one the log
                // already has) and drains the recovered pool in order.
                let left = m.stream.len() - m.cursor;
                if left > 0 {
                    let take = left.min(16);
                    let key = store.get_key(*link, take).unwrap();
                    assert_eq!(key.id.serial, m.next_serial, "prefix {len}: serial reuse");
                    assert_eq!(
                        key.bits.to_bools(),
                        m.stream[m.cursor..m.cursor + take].to_vec(),
                        "prefix {len}: recovered pool out of order"
                    );
                }

                // Every parked reservation survives bit-exact under its
                // claim — and redeems exactly once.
                for (serial, (bits, claim)) in &m.parked {
                    let id = KeyId {
                        link: *link,
                        serial: *serial,
                    };
                    let key = store.get_key_by_id(id, claim.as_deref()).unwrap();
                    assert_eq!(&key.bits.to_bools(), bits, "prefix {len}");
                    assert!(matches!(
                        store.get_key_by_id(id, claim.as_deref()),
                        Err(QkdError::UnknownKeyId { .. })
                    ));
                }
            }
            std::fs::remove_dir_all(&dir).ok();
        }

        /// A fixed mixed workload: deposits on two links, direct drains,
        /// timed + untimed + redeemed reservations, and a TTL sweep.
        fn scripted_history(dir: &Path) {
            let (store, _) = KeyStore::open_durable(dir, JournalConfig::default()).unwrap();
            store.deposit(0, &secret(512, 31)).unwrap();
            store.deposit(1, &secret(256, 32)).unwrap();
            store.get_key(0, 64).unwrap();
            store
                .reserve_keys(0, 2, 32, Some("slow-sae"), Some(Duration::from_secs(3600)))
                .unwrap();
            store.reserve_keys(1, 1, 16, None, None).unwrap();
            let fast = store
                .reserve_keys(1, 1, 16, Some("fast-sae"), Some(Duration::from_secs(3600)))
                .unwrap();
            store.get_key_by_id(fast[0].id, Some("fast-sae")).unwrap();
            store.deposit(0, &secret(128, 33)).unwrap();
            store
                .expire_reservations(Instant::now() + Duration::from_secs(7200))
                .unwrap();
            store.get_key(0, 100).unwrap();
            store.get_key(1, 32).unwrap();
        }

        /// Exhaustive: the scripted history is killed at **every** byte
        /// prefix of its journal, and every cut recovers reconciled.
        #[test]
        fn crash_at_any_byte_prefix_recovers_a_reconciled_store() {
            let dir = temp_dir("script");
            scripted_history(&dir);
            let full = std::fs::read(segment(&dir)).unwrap();
            assert!(full.len() > 400, "script too small to be interesting");
            for len in 0..=full.len() {
                check_prefix("script-cut", &full, len);
            }
            std::fs::remove_dir_all(&dir).ok();
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(16))]

            /// Randomized histories, randomized crash points: whatever
            /// interleaving of deposits, drains, reservations, pickups and
            /// sweeps got journaled, any byte prefix of it recovers to a
            /// store the surviving records explain exactly.
            #[test]
            fn crash_prefix_reconciles_for_random_histories(
                seed in any::<u64>(),
                ops in collection::vec((0u8..5, 0usize..2, 1usize..40), 1..40),
                cut in 0f64..=1.0,
            ) {
                let dir = temp_dir("prop");
                {
                    let (store, _) =
                        KeyStore::open_durable(&dir, JournalConfig::default()).unwrap();
                    let mut issued: Vec<(KeyId, Option<String>)> = Vec::new();
                    let mut n = 0u64;
                    for (op, link, size) in ops {
                        n += 1;
                        match op {
                            0 => store
                                .deposit(link, &secret(size * 8, seed.wrapping_add(n)))
                                .unwrap(),
                            1 => {
                                let _ = store.get_key(link, size);
                            }
                            2 => {
                                let claim = (size % 2 == 0).then(|| format!("sae-{link}"));
                                let ttl = (size % 3 == 0).then(|| Duration::from_secs(3600));
                                if let Ok(keys) = store.reserve_keys(
                                    link,
                                    1 + size % 2,
                                    size,
                                    claim.as_deref(),
                                    ttl,
                                ) {
                                    issued.extend(keys.iter().map(|k| (k.id, claim.clone())));
                                }
                            }
                            3 => {
                                if let Some((id, claim)) = issued.pop() {
                                    let _ = store.get_key_by_id(id, claim.as_deref());
                                }
                            }
                            _ => {
                                let _ = store.expire_reservations(
                                    Instant::now() + Duration::from_secs(7200),
                                );
                            }
                        }
                    }
                }
                let full = std::fs::read(segment(&dir)).unwrap();
                let len = ((cut * full.len() as f64) as usize).min(full.len());
                check_prefix("prop-cut", &full, len);
                std::fs::remove_dir_all(&dir).ok();
            }
        }
    }
}
