//! The image-transformer benchmark lambda (§6.2c).
//!
//! "We consider lambdas that transform RGBA images to grayscale." The
//! request payload is raw RGBA bytes (4 per pixel), delivered over the
//! multi-packet RDMA path; the response is the status preamble followed
//! by one grayscale byte per pixel. The grayscale weights are the
//! fixed-point BT.601 coefficients — NPUs have no floating point
//! (§3.1b), so the paper's lambda would use exactly this transform.
//!
//! The pixel loop is unrolled 4x (with a scalar tail loop), the result
//! is stored back into lambda memory ("store results back to the memory
//! for further processing", §6.2), and the lambda signs and logs each
//! transform with the shared helpers.

use lnic_mlambda::builder::FnBuilder;
use lnic_mlambda::ir::{AluOp, Cmp, HeaderField, Reg, Width};
use lnic_mlambda::program::{Lambda, MemObject, Pragma, WorkloadId};

use crate::helpers::{
    checksum64_helper, format_decimal_helper, log_entry_helper, reply_preamble_helper, DATA,
    STATUS_PREAMBLE,
};

/// Fixed-point BT.601 luma weights (sum = 256).
pub const WEIGHT_R: u64 = 77;
/// Green weight.
pub const WEIGHT_G: u64 = 150;
/// Blue weight.
pub const WEIGHT_B: u64 = 29;

/// A trivially generated RGBA test image.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RgbaImage {
    /// Width in pixels.
    pub width: usize,
    /// Height in pixels.
    pub height: usize,
    /// RGBA bytes, 4 per pixel, row-major.
    pub data: Vec<u8>,
}

impl RgbaImage {
    /// A deterministic gradient-with-checkerboard image.
    pub fn synthetic(width: usize, height: usize) -> Self {
        // Red depends only on the column and green only on the row, so
        // the divisions run once per column and once per row.
        let red: Vec<u8> = (0..width).map(|x| (x * 255 / width) as u8).collect();
        let mut data = Vec::with_capacity(width * height * 4);
        for y in 0..height {
            let green = (y * 255 / height) as u8;
            for (x, &r) in red.iter().enumerate() {
                let checker = if (x / 8 + y / 8) % 2 == 0 { 0u8 } else { 64 };
                data.extend_from_slice(&[r, green, checker, 0xFF]);
            }
        }
        RgbaImage {
            width,
            height,
            data,
        }
    }

    /// Number of pixels.
    pub fn pixels(&self) -> usize {
        self.width * self.height
    }
}

/// Reference implementation of the transform (with reply preamble), used
/// to verify the IR lambda.
pub fn reference_response(rgba: &[u8]) -> Vec<u8> {
    let mut out = STATUS_PREAMBLE.to_vec();
    for px in rgba.chunks_exact(4) {
        let gray =
            (WEIGHT_R * px[0] as u64 + WEIGHT_G * px[1] as u64 + WEIGHT_B * px[2] as u64) >> 8;
        out.push(gray as u8);
    }
    out
}

/// Emits the per-pixel transform: reads pixel `r[idx]` from the payload,
/// stores the gray byte at result offset r9 (advanced), and emits it.
fn pixel_block(b: FnBuilder, idx: Reg) -> FnBuilder {
    b.constant(3, 4)
        .alu(AluOp::Mul, 3, idx, 3)
        .load_payload(4, 3, Width::B4)
        .alu_imm(AluOp::Shr, 5, 4, 24)
        .alu_imm(AluOp::Shr, 6, 4, 16)
        .alu_imm(AluOp::And, 6, 6, 0xff)
        .alu_imm(AluOp::Shr, 7, 4, 8)
        .alu_imm(AluOp::And, 7, 7, 0xff)
        .alu_imm(AluOp::Mul, 5, 5, WEIGHT_R)
        .alu_imm(AluOp::Mul, 6, 6, WEIGHT_G)
        .alu_imm(AluOp::Mul, 7, 7, WEIGHT_B)
        .alu(AluOp::Add, 8, 5, 6)
        .alu(AluOp::Add, 8, 8, 7)
        .alu_imm(AluOp::Shr, 8, 8, 8)
        .store(DATA, 9, 8, Width::B1)
        .emit(8, Width::B1)
        .alu_imm(AluOp::Add, 9, 9, 1)
}

/// Builds the image-transformer lambda.
///
/// `max_pixels` bounds the result buffer (requests beyond it are
/// truncated, mirroring the serverless memory limit).
///
/// Local functions: 1 = reply preamble, 2 = checksum64, 3 =
/// format_decimal, 4 = log_entry.
pub fn image_transformer_lambda(id: WorkloadId, max_pixels: usize) -> Lambda {
    let mut b = FnBuilder::new("image_transformer");
    let no_clamp = b.label();
    let main_loop = b.label();
    let tail_loop = b.label();
    let tail_done = b.label();

    b = b
        .load_payload_len(2)
        .alu_imm(AluOp::Div, 2, 2, 4)
        .constant(1, max_pixels as u64)
        .branch(Cmp::Lt, 2, 1, no_clamp)
        .mov(2, 1)
        .place(no_clamp)
        .call_local(1) // reply preamble
        .constant(1, 0) // i
        .constant(9, 0) // result offset
        // Unrolled main loop: 4 pixels per iteration.
        .place(main_loop)
        .alu_imm(AluOp::Add, 16, 1, 4)
        .branch(Cmp::Lt, 2, 16, tail_loop);
    for k in 0..4u64 {
        b = b.alu_imm(AluOp::Add, 17, 1, k);
        b = pixel_block(b, 17);
    }
    b = b
        .alu_imm(AluOp::Add, 1, 1, 4)
        .jump(main_loop)
        // Scalar tail.
        .place(tail_loop)
        .branch(Cmp::Ge, 1, 2, tail_done);
    b = pixel_block(b, 1);
    b = b
        .alu_imm(AluOp::Add, 1, 1, 1)
        .jump(tail_loop)
        .place(tail_done)
        // Integrity tag over the first 64 result bytes + log entry.
        .constant(12, 0)
        .call_local(2)
        .load_hdr(18, HeaderField::RequestId)
        .mov(10, 18)
        .constant(11, 64)
        .call_local(3)
        .call_local(4);
    let f = b.ret_const(0).build();

    let mut lambda = Lambda::new("image_transformer", id, f);
    lambda.add_object(MemObject::zeroed("scratch", 256).pragma(Pragma::Hot));
    // The result buffer is written per pixel; stratification places it
    // in IMEM (§6.4: "the image variable within the image-transformer
    // lambda is mapped to IMEM").
    lambda.add_object(MemObject::zeroed("result", (max_pixels + 64) as u32));
    lambda
        .add_object(MemObject::with_data("preamble", STATUS_PREAMBLE.to_vec()).pragma(Pragma::Hot));
    lambda.add_function(reply_preamble_helper());
    lambda.add_function(checksum64_helper());
    lambda.add_function(format_decimal_helper());
    lambda.add_function(log_entry_helper());
    lambda
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use lnic_mlambda::interp::{run_to_completion, ObjectMemory, RequestCtx};
    use lnic_mlambda::program::Program;
    use std::sync::Arc;

    fn transform(rgba: &[u8], max_pixels: usize) -> Vec<u8> {
        let mut p = Program::new();
        p.add_lambda(image_transformer_lambda(WorkloadId(4), max_pixels), vec![]);
        p.validate().expect("valid image program");
        let p = Arc::new(p);
        let mut mem = ObjectMemory::for_lambda(&p.lambdas[0]);
        let ctx = RequestCtx {
            payload: Bytes::copy_from_slice(rgba),
            ..Default::default()
        };
        run_to_completion(&p, 0, ctx, &mut mem, 100_000_000, |_, _| Bytes::new())
            .expect("image lambda completes")
            .response
            .to_vec()
    }

    #[test]
    fn ir_matches_reference_on_synthetic_image() {
        let img = RgbaImage::synthetic(16, 16);
        assert_eq!(transform(&img.data, 1024), reference_response(&img.data));
    }

    #[test]
    fn non_multiple_of_four_pixel_counts_hit_the_tail_loop() {
        for pixels in [1usize, 3, 5, 7, 9, 13] {
            let img = RgbaImage::synthetic(pixels, 1);
            assert_eq!(
                transform(&img.data, 64),
                reference_response(&img.data),
                "{pixels} pixels"
            );
        }
    }

    #[test]
    fn known_pixels_transform_correctly() {
        let rgba = [
            255, 0, 0, 255, //
            0, 255, 0, 255, //
            0, 0, 255, 255, //
            255, 255, 255, 255, //
            0, 0, 0, 255,
        ];
        let out = transform(&rgba, 16);
        let grays = &out[STATUS_PREAMBLE.len()..];
        assert_eq!(grays, &[76, 149, 28, 255, 0][..]);
    }

    #[test]
    fn oversized_image_truncated_to_buffer() {
        let img = RgbaImage::synthetic(8, 8); // 64 px
        let out = transform(&img.data, 16);
        assert_eq!(out.len(), STATUS_PREAMBLE.len() + 16);
        let full = reference_response(&img.data);
        assert_eq!(&out[..], &full[..STATUS_PREAMBLE.len() + 16]);
    }

    #[test]
    fn empty_image_yields_preamble_only() {
        assert_eq!(transform(&[], 16), STATUS_PREAMBLE.to_vec());
    }

    #[test]
    fn synthetic_image_shape() {
        let img = RgbaImage::synthetic(10, 5);
        assert_eq!(img.pixels(), 50);
        assert_eq!(img.data.len(), 200);
        assert!(img.data.chunks_exact(4).all(|px| px[3] == 0xFF));
    }
}
