//! Dynamically-typed messages exchanged between simulation components.
//!
//! Components from different crates need to exchange payloads the engine
//! knows nothing about, so the engine moves [`Box<dyn Message>`] values and
//! receivers downcast to the concrete types they understand.

use std::any::{Any, TypeId};
use std::fmt;

/// A payload deliverable to a [`crate::Component`].
///
/// Blanket-implemented for every `'static + Debug` type, so any
/// ordinary struct or enum can be sent without ceremony.
///
/// # Examples
///
/// ```
/// use lnic_sim::message::{AnyMessage, Message};
///
/// #[derive(Debug, PartialEq)]
/// struct Ping(u32);
///
/// let boxed: AnyMessage = Box::new(Ping(7));
/// let ping = boxed.downcast::<Ping>().expect("type matches");
/// assert_eq!(*ping, Ping(7));
/// ```
pub trait Message: Any + fmt::Debug {
    /// Borrows the message as [`Any`] for by-reference downcasting.
    fn as_any(&self) -> &dyn Any;
    /// Converts the boxed message into [`Box<dyn Any>`] for by-value
    /// downcasting.
    fn into_any(self: Box<Self>) -> Box<dyn Any>;
    /// The [`TypeId`] of the concrete payload, in one virtual call. The
    /// `downcast*` methods on `dyn Message` check against it, so every
    /// failing arm of a downcast chain costs exactly one call.
    ///
    /// Call it on the payload (`(*boxed).message_type()`): a `Box<dyn
    /// Message>` is itself a `Message`, and calling through the box names
    /// the box's type.
    fn message_type(&self) -> TypeId;
}

impl<T: Any + fmt::Debug> Message for T {
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
    #[inline]
    fn message_type(&self) -> TypeId {
        TypeId::of::<T>()
    }
}

/// A boxed, type-erased message.
pub type AnyMessage = Box<dyn Message>;

impl dyn Message {
    /// Returns a reference to the payload if it is a `T`.
    #[inline]
    pub fn downcast_ref<T: Any>(&self) -> Option<&T> {
        if self.is::<T>() {
            // SAFETY: the payload's concrete type is `T` (checked above; see
            // `is`), so the data pointer of this fat pointer points at a
            // valid `T` that lives as long as `self`.
            Some(unsafe { &*(self as *const dyn Message as *const T) })
        } else {
            None
        }
    }

    /// Returns `true` when the payload is a `T`.
    #[inline]
    pub fn is<T: Any>(&self) -> bool {
        // The downcasts' unsafe casts rely on this check being truthful. It
        // is: only sized types coerce to `dyn Message`, and for a sized type
        // the blanket impl above is the only possible `Message` impl.
        self.message_type() == TypeId::of::<T>()
    }

    /// Recovers the concrete payload, or returns the box unchanged when the
    /// type does not match.
    #[inline]
    pub fn downcast<T: Any>(self: Box<Self>) -> Result<Box<T>, AnyMessage> {
        if self.is::<T>() {
            let raw = Box::into_raw(self) as *mut T;
            // SAFETY: the payload's concrete type is `T` (checked above; see
            // `is`), so the allocation was made by `Box<T>` with `T`'s
            // layout; dropping the vtable and rebuilding a thin `Box<T>` from
            // the data pointer hands the allocation back to its owner type.
            Ok(unsafe { Box::from_raw(raw) })
        } else {
            Err(self)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    struct Ping(u32);
    #[derive(Debug, PartialEq)]
    struct Pong(u32);

    #[test]
    fn downcast_ref_matches_type() {
        let m: AnyMessage = Box::new(Ping(1));
        assert!(m.is::<Ping>());
        assert!(!m.is::<Pong>());
        assert_eq!(m.downcast_ref::<Ping>(), Some(&Ping(1)));
        assert_eq!(m.downcast_ref::<Pong>(), None);
    }

    #[test]
    fn downcast_by_value_recovers_payload() {
        let m: AnyMessage = Box::new(Ping(9));
        let ping = m.downcast::<Ping>().expect("is a Ping");
        assert_eq!(*ping, Ping(9));
    }

    #[test]
    fn downcast_by_value_returns_box_on_mismatch() {
        let m: AnyMessage = Box::new(Ping(9));
        let m = m.downcast::<Pong>().expect_err("not a Pong");
        // The original payload is preserved.
        assert_eq!(m.downcast_ref::<Ping>(), Some(&Ping(9)));
    }

    /// A zero-sized payload: its box owns no allocation.
    #[derive(Debug, PartialEq)]
    struct Marker;

    /// A payload larger than any register, behind a heap buffer.
    #[derive(Debug, PartialEq)]
    struct Frame {
        header: [u64; 16],
        body: Vec<u8>,
    }

    fn frame() -> Frame {
        Frame {
            header: std::array::from_fn(|i| i as u64 * 3),
            body: (0..=255).collect(),
        }
    }

    #[test]
    fn downcast_hits_and_misses_on_a_zero_sized_type() {
        let m: AnyMessage = Box::new(Marker);
        assert!(m.is::<Marker>());
        assert_eq!(m.downcast_ref::<Marker>(), Some(&Marker));
        let m = m.downcast::<Frame>().expect_err("not a Frame");
        assert_eq!((*m).message_type(), TypeId::of::<Marker>());
        assert_eq!(*m.downcast::<Marker>().expect("is a Marker"), Marker);
    }

    #[test]
    fn downcast_hits_and_misses_on_a_large_boxed_payload() {
        let m: AnyMessage = Box::new(frame());
        assert_eq!(m.downcast_ref::<Marker>(), None);
        let m = m.downcast::<Marker>().expect_err("not a Marker");
        let m = m.downcast::<Ping>().expect_err("not a Ping");
        // A miss hands back the intact message.
        assert_eq!(m.downcast_ref::<Frame>(), Some(&frame()));
        let f = m.downcast::<Frame>().expect("is a Frame");
        assert_eq!(*f, frame());
    }

    #[test]
    fn message_type_names_the_payload_not_the_box() {
        let m: AnyMessage = Box::new(Ping(1));
        assert_eq!((*m).message_type(), TypeId::of::<Ping>());
        assert_eq!(m.message_type(), TypeId::of::<AnyMessage>());
    }

    #[test]
    fn debug_formatting_passes_through() {
        let m: AnyMessage = Box::new(Ping(3));
        assert_eq!(format!("{m:?}"), "Ping(3)");
    }
}
