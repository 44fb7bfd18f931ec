//! The C library surface the reactor calls, declared here because `std`
//! exposes neither `poll(2)` nor a non-blocking `connect(2)`. Linux only:
//! the layouts and constants are those of Linux on x86_64 and aarch64
//! (they agree for everything below).
#![allow(non_camel_case_types)]

pub use std::ffi::{c_int, c_short, c_void};

pub type socklen_t = u32;
pub type sa_family_t = u16;
pub type nfds_t = std::ffi::c_ulong;

pub const AF_INET: c_int = 2;
pub const AF_INET6: c_int = 10;
pub const SOCK_STREAM: c_int = 1;
pub const SOCK_NONBLOCK: c_int = 0o4000;
pub const SOCK_CLOEXEC: c_int = 0o2000000;
pub const SOL_SOCKET: c_int = 1;
pub const SO_ERROR: c_int = 4;
pub const EINPROGRESS: c_int = 115;
pub const POLLIN: c_short = 0x1;
pub const POLLOUT: c_short = 0x4;
pub const POLLERR: c_short = 0x8;
pub const POLLHUP: c_short = 0x10;

#[repr(C)]
#[derive(Clone, Copy, Debug)]
pub struct pollfd {
    pub fd: c_int,
    pub events: c_short,
    pub revents: c_short,
}

/// Only ever a pointer target: `connect` is passed a [`sockaddr_storage`].
#[repr(C)]
pub struct sockaddr {
    pub sa_family: sa_family_t,
    pub sa_data: [u8; 14],
}

#[repr(C)]
#[derive(Clone, Copy)]
pub struct sockaddr_in {
    pub sin_family: sa_family_t,
    /// Network byte order.
    pub sin_port: u16,
    /// `struct in_addr`: the address in network byte order.
    pub sin_addr: u32,
    pub sin_zero: [u8; 8],
}

#[repr(C)]
#[derive(Clone, Copy)]
pub struct sockaddr_in6 {
    pub sin6_family: sa_family_t,
    /// Network byte order.
    pub sin6_port: u16,
    pub sin6_flowinfo: u32,
    /// `struct in6_addr`.
    pub sin6_addr: [u8; 16],
    pub sin6_scope_id: u32,
}

/// Large and aligned enough for any socket address.
#[repr(C)]
#[derive(Clone, Copy)]
pub struct sockaddr_storage {
    pub ss_family: sa_family_t,
    pad: [u8; 128 - 2 - 8],
    align: u64,
}

extern "C" {
    pub fn socket(domain: c_int, ty: c_int, protocol: c_int) -> c_int;
    pub fn connect(socket: c_int, address: *const sockaddr, len: socklen_t) -> c_int;
    pub fn close(fd: c_int) -> c_int;
    pub fn getsockopt(
        sockfd: c_int,
        level: c_int,
        optname: c_int,
        optval: *mut c_void,
        optlen: *mut socklen_t,
    ) -> c_int;
    pub fn poll(fds: *mut pollfd, nfds: nfds_t, timeout: c_int) -> c_int;
}
