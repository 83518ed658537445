//! Pinned digests the correctness gates compare against.

/// Fig. 8 at seed 8: the trace digest of every (kernel, message size)
/// machine, in run order (CNK then Linux capabilities, per size), as
/// recorded in `BENCH_baseline.json` under `fig8_throughput.threads1`.
pub const FIG8_SEED8: [(&str, u64); 28] = [
    ("cnk.512", 0xd9e1_1d16_0a93_98a5),
    ("linux_caps.512", 0x50a0_d1fc_8427_5425),
    ("cnk.1024", 0xbd82_daf9_5c22_a025),
    ("linux_caps.1024", 0x0fd0_f45a_d0ab_eda5),
    ("cnk.2048", 0x442d_ddfb_b8bd_ec25),
    ("linux_caps.2048", 0xd286_3b73_882a_caa5),
    ("cnk.4096", 0x5049_92e9_1470_a4a5),
    ("linux_caps.4096", 0xbd58_5048_fd21_4a25),
    ("cnk.8192", 0x25c5_abee_0b57_65a5),
    ("linux_caps.8192", 0xaa7b_291f_0773_0725),
    ("cnk.16384", 0xae58_faf6_be0c_5925),
    ("linux_caps.16384", 0x28df_72b0_9f94_bea5),
    ("cnk.32768", 0xb051_3291_05fc_9c25),
    ("linux_caps.32768", 0x9631_810c_9170_a325),
    ("cnk.65536", 0x98a9_fd63_843f_44a5),
    ("linux_caps.65536", 0x98d6_2e71_9ee4_0ea5),
    ("cnk.131072", 0x0618_1a02_0d08_e5a5),
    ("linux_caps.131072", 0xffc0_222e_ca91_0b25),
    ("cnk.262144", 0x5256_c0fb_bcb9_5925),
    ("linux_caps.262144", 0xdc51_2a46_25d0_3fa5),
    ("cnk.524288", 0xdc49_6db7_b250_9c25),
    ("linux_caps.524288", 0x24a2_c9ab_26bd_f4a5),
    ("cnk.1048576", 0x8c8b_da97_410f_44a5),
    ("linux_caps.1048576", 0xdd9d_fa14_8e1c_92a5),
    ("cnk.2097152", 0x4f47_f840_d260_e5a5),
    ("linux_caps.2097152", 0x783b_6db0_72dd_2b25),
    ("cnk.4194304", 0x9a1e_f65c_2e91_5925),
    ("linux_caps.4194304", 0x51a0_58a3_259c_57a5),
];
