//! Message identity: pairing sends with receives across every transport.

use serde::Serialize;

use autopipe_schedule::Part;

/// Identity of one in-flight pipeline message.
///
/// `dst_stage` is the pipeline stage that *consumes* the message: for
/// activations the receiver's stage, for gradients the stage below the
/// sender. Keying on the consuming stage (not the device) disambiguates
/// multiple chunks flowing between the same device pair under the
/// interleaved schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct MsgKey {
    /// Gradient (backward) rather than activation (forward) message.
    pub is_grad: bool,
    /// Micro-batch index.
    pub mb: usize,
    /// Which part of the micro-batch the message carries. Gradients are
    /// always [`Part::Full`] — backwards are never sliced.
    pub part: Part,
    /// Pipeline stage that consumes the message.
    pub dst_stage: usize,
}

impl MsgKey {
    /// Key of an activation message for `part` of `mb` consumed by `dst_stage`.
    pub fn act(mb: usize, part: Part, dst_stage: usize) -> MsgKey {
        MsgKey {
            is_grad: false,
            mb,
            part,
            dst_stage,
        }
    }

    /// Key of a gradient message for `mb` consumed by `dst_stage`.
    pub fn grad(mb: usize, dst_stage: usize) -> MsgKey {
        MsgKey {
            is_grad: true,
            mb,
            part: Part::Full,
            dst_stage,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_fill_the_fields() {
        let a = MsgKey::act(3, Part::Half1, 2);
        assert!(!a.is_grad);
        assert_eq!((a.mb, a.part, a.dst_stage), (3, Part::Half1, 2));
        let g = MsgKey::grad(1, 0);
        assert!(g.is_grad);
        assert_eq!(g.part, Part::Full);
    }
}
